package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmc/internal/fuzz"
	"pmc/internal/noc"
	"pmc/internal/pmcd"
	"pmc/internal/rt"
	"pmc/internal/sweep"
	"pmc/internal/workloads"
)

// The pmcd workload: an in-process server (two workers, a disk store, the
// default 128-entry memory tier) behind an HTTP test server, drained by
// two closed-loop clients that each wait for a result before sending their
// next job.
const (
	pmcdWorkers = 2
	pmcdClients = 2
	hotJobs     = 48
	// oldLag keeps a re-submitted cold job at least this many stream
	// positions behind the job being issued, so that it has normally
	// finished and is answered from the store.
	oldLag = 8
	// pmcdCodeVersion salts the result fingerprints. It is fixed so that
	// fingerprints do not depend on how the binary was built.
	pmcdCodeVersion = "benchmark"
)

type jobClass uint8

const (
	hotJob jobClass = iota // one of the hot set the set-up prefilled
	oldJob                 // an earlier cold job, submitted again
	newJob                 // a cold job never submitted before
)

type streamJob struct {
	class jobClass
	spec  pmcd.JobSpec
}

// jobStream is the seeded job sequence the clients drain: 75% hot-set
// jobs, 15% earlier cold jobs and 10% new cold jobs. Job i depends only
// on the seed and i, whichever client issues it.
type jobStream struct {
	mu       sync.Mutex
	rng      *rand.Rand
	cells    []pmcd.SweepJob // the single-cell sweep universe, shuffled
	nextCell int
	nextFuzz int64 // next candidate fuzz-job seed
	hot      []pmcd.JobSpec
	jobs     []streamJob
	newAt    []int // stream positions of new jobs, increasing
}

func newJobStream(seed int64, hot int) *jobStream {
	s := &jobStream{rng: rand.New(rand.NewSource(seed)), nextFuzz: seed * 1_000_000}
	for _, app := range workloads.Names {
		for _, b := range rt.Backends {
			// Below four tiles some apps reject the shape (more FIFO
			// roles than tiles).
			for tiles := 4; tiles <= 32; tiles++ {
				for _, topo := range []string{"ring", "mesh"} {
					s.cells = append(s.cells, pmcd.SweepJob{
						Apps: []string{app}, Backends: []string{b}, Tiles: []int{tiles}, Topos: []string{topo}, Small: true,
					})
				}
			}
		}
	}
	s.rng.Shuffle(len(s.cells), func(i, j int) { s.cells[i], s.cells[j] = s.cells[j], s.cells[i] })
	for len(s.hot) < hot {
		s.hot = append(s.hot, s.drawCold())
	}
	return s
}

// drawCold returns a job never drawn before: 80% single-cell small
// sweeps, 20% two-program fuzz campaigns.
func (s *jobStream) drawCold() pmcd.JobSpec {
	if s.rng.Intn(5) < 4 && s.nextCell < len(s.cells) {
		c := s.cells[s.nextCell]
		s.nextCell++
		return pmcd.JobSpec{Sweep: &c}
	}
	return pmcd.JobSpec{Fuzz: s.drawFuzz()}
}

// drawFuzz returns the next fuzz job whose two programs both have two
// threads. The service explores without a state cap, and a three-thread
// program can take seconds (see fuzzMaxStates); two-thread programs take
// milliseconds, so cold latency measures the service rather than which
// rare program a seed draws.
func (s *jobStream) drawFuzz() *pmcd.FuzzJob {
	gen := fuzz.GenConfig{Mode: fuzz.ModeMixed} // what the service generates with
	for {
		seed := s.nextFuzz
		s.nextFuzz += 2
		if len(fuzz.Generate(seed, gen).Threads) == 2 && len(fuzz.Generate(seed+1, gen).Threads) == 2 {
			return &pmcd.FuzzJob{Seed: seed, N: 2}
		}
	}
}

// at returns job i, extending the stream as needed.
func (s *jobStream) at(i int) streamJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.jobs) <= i {
		pos := len(s.jobs)
		var j streamJob
		switch r := s.rng.Intn(100); {
		case r >= 90:
			j = streamJob{newJob, s.drawCold()}
			s.newAt = append(s.newAt, pos)
		case r >= 75:
			if n := sort.SearchInts(s.newAt, pos-oldLag+1); n > 0 {
				j = streamJob{oldJob, s.jobs[s.newAt[s.rng.Intn(n)]].spec}
				break
			}
			fallthrough
		default:
			j = streamJob{hotJob, s.hot[s.rng.Intn(len(s.hot))]}
		}
		s.jobs = append(s.jobs, j)
	}
	return s.jobs[i]
}

// newJobs counts the new jobs among the first n.
func (s *jobStream) newJobs(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sort.SearchInts(s.newAt, n)
}

// bodyBook keeps the first result body seen for each fingerprint; every
// later body for that fingerprint must be byte-equal to it.
type bodyBook struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (b *bodyBook) check(fp string, body []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if first, ok := b.m[fp]; ok {
		if !bytes.Equal(first, body) {
			return fmt.Errorf("result for %.12s differs from its first result", fp)
		}
		return nil
	}
	b.m[fp] = body
	return nil
}

// service is a running pmcd server with its clients and job stream.
type service struct {
	dir     string
	srv     *pmcd.Server
	ts      *httptest.Server
	clients []*pmcd.Client
	stream  *jobStream
	bodies  *bodyBook
}

// startService starts a server over a fresh disk store, builds the job
// stream and prefills the hot set through the clients.
func startService(ctx context.Context, workDir string, seed int64, hot int) (*service, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "pmcd-store-")
	if err != nil {
		return nil, err
	}
	srv, err := pmcd.New(pmcd.Config{Workers: pmcdWorkers, CacheDir: dir, CodeVersion: pmcdCodeVersion})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	s := &service{dir: dir, srv: srv, ts: ts, stream: newJobStream(seed, hot), bodies: &bodyBook{m: map[string][]byte{}}}
	for i := 0; i < pmcdClients; i++ {
		s.clients = append(s.clients, &pmcd.Client{Base: ts.URL, HTTP: ts.Client()})
	}
	_, errs, _ := closedLoop(pmcdClients, hot, func(lane, i int) error {
		return s.do(ctx, lane, s.stream.hot[i])
	})
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, fmt.Errorf("prefill: %w", err)
	}
	return s, nil
}

func (s *service) close() {
	s.ts.Close()
	s.srv.Close()
	os.RemoveAll(s.dir)
}

// do submits one job, reads its result bytes and checks them.
func (s *service) do(ctx context.Context, lane int, spec pmcd.JobSpec) error {
	c := s.clients[lane]
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	body, err := c.Result(ctx, st.ID, true)
	if err != nil {
		return err
	}
	return s.bodies.check(st.Fingerprint, body)
}

// checkSimulations checks that the server simulated each distinct job
// exactly once: the hot set plus every new job among the first n.
func (s *service) checkSimulations(r *run, n int) {
	want := int64(len(s.stream.hot) + s.stream.newJobs(n))
	if got := s.srv.Stats().Simulations; got != want {
		r.fail(1, "server ran %d simulations, want %d (hot set + distinct cold jobs)", got, want)
	}
}

func runPmcdMixed(r *run) error {
	hot := hotJobs
	if r.cfg.short {
		hot = 4
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(3*r.cfg.seconds)*time.Second+time.Minute)
	defer cancel()
	start := func() (*service, error) { return startService(ctx, r.cfg.workDir, r.cfg.seed, hot) }
	svc, setups, err := setUpRepeatedly(start, (*service).close)
	if err != nil {
		return err
	}
	lat, errs, wall := closedLoop(pmcdClients, r.units(), func(lane, i int) error {
		return svc.do(ctx, lane, svc.stream.at(i).spec)
	})
	r.pmcdChecked(svc, errs)
	svc.close()
	if !r.cfg.traced {
		r.endToEnd(setups, lat, wall)
		return nil
	}
	return r.pmcdTraced(ctx, start, lat)
}

// pmcdChecked counts the failed jobs of a phase and checks the server's
// simulation count.
func (r *run) pmcdChecked(svc *service, errs []error) {
	r.attempted += len(errs)
	for i, err := range errs {
		if err != nil {
			r.fail(1, "job %d: %v", i, err)
		}
	}
	svc.checkSimulations(r, len(errs))
}

// pmcdTraced replays the engine phase's jobs on a fresh server with a span
// around every client call, recomputes every cold job directly through
// its engine, and records the per-layer metrics.
func (r *run) pmcdTraced(ctx context.Context, start func() (*service, error), engineLat []time.Duration) error {
	n := len(engineLat)
	svc, err := start()
	if err != nil {
		return err
	}
	defer svc.close()
	tr := newTracer()
	var (
		lat      []time.Duration
		errs     []error
		depthMax atomic.Int64
		rejected atomic.Int64
	)
	err = tracedPhase(r.m, func() {
		lat, errs, _ = closedLoop(pmcdClients, n, func(lane, i int) error {
			c := svc.clients[lane]
			j := svc.stream.at(i)
			root := tr.begin("pmcd.job", noSpan, int64(i), lane)
			defer tr.end(root)
			var (
				fp   string
				st   *pmcd.JobStatus
				body []byte
				err  error
			)
			tr.call("pmcd.fingerprint", root, func() { fp, err = pmcd.Fingerprint(j.spec, pmcdCodeVersion) })
			if err != nil {
				return err
			}
			tr.call("pmcd.submit", root, func() { st, err = c.Submit(ctx, j.spec) })
			if err != nil {
				if strings.Contains(err.Error(), "HTTP 503") {
					rejected.Add(1)
				}
				return err
			}
			for d := int64(svc.srv.Stats().QueueDepth); ; {
				if cur := depthMax.Load(); d <= cur || depthMax.CompareAndSwap(cur, d) {
					break
				}
			}
			tr.call("pmcd.result", root, func() { body, err = c.Result(ctx, st.ID, true) })
			if err != nil {
				return err
			}
			if fp != st.Fingerprint {
				return fmt.Errorf("pmcd.Fingerprint gave %.12s, the server %.12s", fp, st.Fingerprint)
			}
			return svc.bodies.check(fp, body)
		})
	})
	if err != nil {
		return err
	}
	r.pmcdChecked(svc, errs)

	// Every cold job's body must equal what its engine computes directly.
	var cold []pmcd.JobSpec
	for i := 0; i < n; i++ {
		if j := svc.stream.at(i); j.class == newJob {
			cold = append(cold, j.spec)
		}
	}
	_, errs, _ = closedLoop(pmcdWorkers, len(cold), func(_, i int) error {
		fp, err := pmcd.Fingerprint(cold[i], pmcdCodeVersion)
		if err != nil {
			return err
		}
		svc.bodies.mu.Lock()
		body := svc.bodies.m[fp]
		svc.bodies.mu.Unlock()
		return engineAgrees(cold[i], body)
	})
	for i, err := range errs {
		if err != nil {
			r.fail(1, "cold job %d: %v", i, err)
		}
	}

	var hit, coldLat, submit, result, coldWait []time.Duration
	tr.each(func(s span) {
		class := svc.stream.at(int(s.req)).class
		switch s.name {
		case "pmcd.job":
			if class == newJob {
				coldLat = append(coldLat, s.dur())
			} else {
				hit = append(hit, s.dur())
			}
		case "pmcd.submit":
			submit = append(submit, s.dur())
		case "pmcd.result":
			result = append(result, s.dur())
			if class == newJob {
				coldWait = append(coldWait, s.dur())
			}
		}
	})
	m := r.m
	setLatency(m, "pmcd.hit_ms", hit)
	setLatency(m, "pmcd.cold_ms", coldLat)
	setLatency(m, "pmcd.submit_ms", submit)
	setLatency(m, "pmcd.result_ms", result)
	m.set("pmcd.cold_wait_ms_p50", quantile(sortedCopy(coldWait), 0.5), "ms")
	m.set("pmcd.fingerprint_us", 1000*tr.stats()["pmcd.fingerprint"].meanMs(), "us")
	st := svc.srv.Stats()
	m.set("pmcd.submitted", float64(st.Submitted), "count")
	m.set("pmcd.cached", float64(st.Cached), "count")
	m.set("pmcd.deduped", float64(st.Deduped), "count")
	m.set("pmcd.simulations", float64(st.Simulations), "count")
	m.set("pmcd.rejected", float64(rejected.Load()), "count")
	m.set("pmcd.hit_ratio", ratio(float64(st.Cached), float64(st.Submitted)), "share")
	m.set("pmcd.store_mem_hits", float64(st.Store.MemHits), "count")
	m.set("pmcd.store_disk_hits", float64(st.Store.DiskHits), "count")
	m.set("pmcd.store_puts", float64(st.Store.Puts), "count")
	m.set("pmcd.queue_depth_max", float64(depthMax.Load()), "count")
	m.set("trace_overhead", traceOverhead(engineLat, lat), "ratio")
	r.note("%d jobs replayed (%d hot or earlier, %d new); server counts include the %d-job prefill",
		n, len(hit), len(coldLat), len(svc.stream.hot))
	if r.cfg.traceOut != "" {
		return tr.writeChrome(r.cfg.traceOut)
	}
	return nil
}

// engineAgrees recomputes a cold job directly through the engine the
// service runs for it and compares the result with the service's body.
func engineAgrees(spec pmcd.JobSpec, body []byte) error {
	switch {
	case spec.Sweep != nil:
		j := spec.Sweep
		var topos []noc.Topology
		for _, t := range j.Topos {
			topo, err := noc.ParseTopology(t)
			if err != nil {
				return err
			}
			topos = append(topos, topo)
		}
		table, err := sweep.Run(sweep.Spec{
			Apps: j.Apps, Backends: j.Backends, Tiles: j.Tiles, Topos: topos,
			Make: func(c sweep.Cell) (workloads.App, error) {
				app, ok := workloads.Scaled(c.App, j.Small)
				if !ok {
					return nil, fmt.Errorf("unknown app %q", c.App)
				}
				return app, nil
			},
		})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := table.WriteJSON(&buf); err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), body) {
			return errors.New("service body differs from sweep.Run's table")
		}
	case spec.Fuzz != nil:
		j := spec.Fuzz
		sum, err := fuzz.Run(fuzz.Config{Seed: j.Seed, N: j.N, Gen: fuzz.GenConfig{Mode: fuzz.ModeMixed}})
		if err != nil {
			return err
		}
		type tally struct {
			Seed          int64 `json:"seed"`
			N             int   `json:"n"`
			Unique        int   `json:"unique"`
			Deduped       int   `json:"deduped"`
			SkippedBudget int   `json:"skipped_budget"`
			SkippedStuck  int   `json:"skipped_stuck"`
			Checked       int   `json:"checked"`
			Ok            bool  `json:"ok"`
		}
		var got tally
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want := tally{sum.Seed, sum.N, sum.Unique, sum.Deduped, sum.SkippedBudget, sum.SkippedStuck, sum.Checked, sum.Ok()}
		if got != want {
			return fmt.Errorf("service summary %+v, fuzz.Run %+v", got, want)
		}
		if !got.Ok {
			return errors.New("fuzz job found violations")
		}
	}
	return nil
}
