package pmcd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// newTestService starts a server with its HTTP surface and returns it with
// a client pointed at it, so every test exercises the same wire path the
// CLI and the CI smoke job use.
func newTestService(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.CodeVersion == "" {
		cfg.CodeVersion = "test"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, NewClient(ts.URL)
}

// submitAndFetch submits a spec and returns (status after submit, result
// bytes once done).
func submitAndFetch(t *testing.T, c *Client, spec JobSpec) (*JobStatus, []byte) {
	t.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	body, err := c.Result(ctx, st.ID, true)
	if err != nil {
		t.Fatalf("Result(%s): %v", st.ID, err)
	}
	return st, body
}

// The acceptance property of the whole service: a resubmitted job is
// answered from the store, with no simulation, byte-identical to the
// fresh run — which itself is byte-identical to running the engine
// directly.
func TestServerCacheHitByteIdentity(t *testing.T) {
	srv, c := newTestService(t, Config{})
	spec := litmusJob()

	st1, body1 := submitAndFetch(t, c, spec)
	if st1.Cached {
		t.Fatal("first submission claims a cache hit on an empty store")
	}
	res, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := res.Body()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body1, direct) {
		t.Fatalf("served body differs from a direct engine run:\n%s\nvs\n%s", body1, direct)
	}

	st2, body2 := submitAndFetch(t, c, spec)
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("resubmission not a cache hit: %+v", st2)
	}
	if st2.Fingerprint != st1.Fingerprint {
		t.Fatalf("fingerprint drifted across submissions: %s vs %s", st1.Fingerprint, st2.Fingerprint)
	}
	if !bytes.Equal(body2, body1) {
		t.Fatal("cached body is not byte-identical to the fresh simulation")
	}

	stats := srv.Stats()
	if stats.Simulations != 1 {
		t.Fatalf("two submissions cost %d simulations, want 1", stats.Simulations)
	}
	if stats.Cached != 1 || stats.Submitted != 2 || stats.Done != 2 {
		t.Fatalf("counter mismatch: %+v", stats)
	}

	// The content-addressed endpoint serves the same bytes.
	byFp, ok, err := c.ResultByFingerprint(context.Background(), st1.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("ResultByFingerprint: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(byFp, body1) {
		t.Fatal("fingerprint lookup returned different bytes")
	}
	if _, ok, err := c.ResultByFingerprint(context.Background(), fmt.Sprintf("%064x", 0)); err != nil || ok {
		t.Fatalf("absent fingerprint: ok=%v err=%v", ok, err)
	}
}

func TestServerSweepJob(t *testing.T) {
	srv, c := newTestService(t, Config{})
	spec := sweepJob()
	st1, body1 := submitAndFetch(t, c, spec)

	// The served table is the sweep engine's own JSON emission: an
	// indented array of rows in grid order.
	var rows []map[string]any
	if err := json.Unmarshal(body1, &rows); err != nil {
		t.Fatalf("sweep body is not a row array: %v\n%s", err, body1)
	}
	if len(rows) != 1 {
		t.Fatalf("1-cell grid produced %d rows", len(rows))
	}

	st2, body2 := submitAndFetch(t, c, spec)
	if !st2.Cached || !bytes.Equal(body2, body1) {
		t.Fatalf("sweep resubmission not a byte-identical hit (cached=%v)", st2.Cached)
	}
	if got := srv.Stats().Simulations; got != 1 {
		t.Fatalf("sweep pair cost %d simulations", got)
	}
	_ = st1
}

// TestServerRejectsBenchKind: the retired bench job kind is an unknown
// field, refused with HTTP 400 before anything runs.
func TestServerRejectsBenchKind(t *testing.T) {
	srv, c := newTestService(t, Config{})
	body := `{"bench":{"entry":{"name":"bench/mfifo","sim":{"app":"mfifo","backend":"dsm","tiles":4,"topo":"ring","small":true}}}}`
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bench job answered HTTP %d, want 400", resp.StatusCode)
	}
	if st := srv.Stats(); st.Submitted != 0 || st.Simulations != 0 {
		t.Errorf("refused bench job reached the queue: %+v", st)
	}
}

func TestServerEventsStreamTerminates(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	st, err := c.Submit(ctx, litmusJob())
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	last, err := c.Events(ctx, st.ID, func(ev JobStatus) {
		states = append(states, ev.State)
	})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if last.State != StateDone {
		t.Fatalf("stream ended in state %q", last.State)
	}
	if len(states) == 0 {
		t.Fatal("stream emitted no events")
	}
	if states[len(states)-1] != StateDone {
		t.Fatalf("stream did not end with the terminal state: %v", states)
	}
	if last.ProgressDone != last.ProgressTotal || last.ProgressTotal == 0 {
		t.Fatalf("finished job reports progress %d/%d", last.ProgressDone, last.ProgressTotal)
	}
}

func TestServerRejects(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	for name, spec := range map[string]JobSpec{
		"empty":     {},
		"two kinds": {Litmus: &LitmusJob{Prog: "sb-drf"}, Fuzz: &FuzzJob{Seed: 1, N: 1}},
		"unknown":   {Litmus: &LitmusJob{Prog: "nope"}},
	} {
		if _, err := c.Submit(ctx, spec); err == nil {
			t.Errorf("%s: submission accepted", name)
		}
	}
	if err := c.getJSON(ctx, "/v1/jobs/j999", &JobStatus{}); err == nil {
		t.Error("unknown job id did not 404")
	}
	// Unknown top-level fields are rejected (a typoed "sweeps" must not
	// silently submit an empty job).
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"sweeps": {}}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field submitted with HTTP %d", resp.StatusCode)
	}
	// Oversized bodies are cut off at the size bound with 413, while a
	// normal spec on the same endpoint is still accepted.
	huge := append([]byte(`{"litmus": {"prog": "`), bytes.Repeat([]byte("x"), maxJobSpecBytes)...)
	huge = append(huge, `"}}`...)
	resp, err = http.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body answered HTTP %d, want 413", resp.StatusCode)
	}
	resp, err = http.Post(c.Base+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"litmus": {"prog": "sb-drf"}}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("normal spec answered HTTP %d, want 202", resp.StatusCode)
	}
	// Non-fingerprint result paths are rejected before touching the store.
	resp, err = http.Get(c.Base + "/v1/results/NOT-A-FINGERPRINT")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad fingerprint path answered HTTP %d", resp.StatusCode)
	}
}

// TestConcurrentClientsSingleFlight is the -race satellite: many clients
// submitting overlapping jobs cost exactly one simulation per distinct
// fingerprint, and every client reads byte-identical results.
func TestConcurrentClientsSingleFlight(t *testing.T) {
	srv, c := newTestService(t, Config{Workers: 8})
	specs := []JobSpec{
		{Litmus: &LitmusJob{Prog: "sb-drf"}},
		{Litmus: &LitmusJob{Prog: "corr"}},
	}
	const perSpec = 8
	type res struct {
		fp   string
		body []byte
	}
	results := make([]res, len(specs)*perSpec)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for si, spec := range specs {
		for k := 0; k < perSpec; k++ {
			wg.Add(1)
			go func(slot int, spec JobSpec) {
				defer wg.Done()
				<-start
				ctx := context.Background()
				st, err := c.Submit(ctx, spec)
				if err != nil {
					t.Errorf("slot %d: %v", slot, err)
					return
				}
				body, err := c.Result(ctx, st.ID, true)
				if err != nil {
					t.Errorf("slot %d: %v", slot, err)
					return
				}
				results[slot] = res{fp: st.Fingerprint, body: body}
			}(si*perSpec+k, spec)
		}
	}
	close(start)
	wg.Wait()

	byFp := map[string][]byte{}
	for i, r := range results {
		if r.fp == "" {
			t.Fatalf("slot %d has no result", i)
		}
		if prev, ok := byFp[r.fp]; ok {
			if !bytes.Equal(prev, r.body) {
				t.Fatalf("fingerprint %s served divergent bodies", r.fp)
			}
		} else {
			byFp[r.fp] = r.body
		}
	}
	if len(byFp) != len(specs) {
		t.Fatalf("%d distinct fingerprints for %d distinct specs", len(byFp), len(specs))
	}
	if sims := srv.cache.Simulations(); sims != int64(len(specs)) {
		t.Fatalf("%d clients cost %d simulations, want %d (one per fingerprint)",
			len(results), sims, len(specs))
	}
}

// A server restarted over the same cache directory answers from disk.
func TestServerDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := litmusJob()

	srv1, c1 := newTestService(t, Config{CacheDir: dir})
	_, body1 := submitAndFetch(t, c1, spec)
	if srv1.Stats().Simulations != 1 {
		t.Fatal("first server did not simulate")
	}

	srv2, c2 := newTestService(t, Config{CacheDir: dir})
	st, body2 := submitAndFetch(t, c2, spec)
	if !st.Cached {
		t.Fatal("restarted server re-simulated a stored fingerprint")
	}
	if !bytes.Equal(body2, body1) {
		t.Fatal("disk-tier body differs across restarts")
	}
	if srv2.Stats().Simulations != 0 {
		t.Fatal("restarted server counted a simulation for a disk hit")
	}
}

// A different code version is a different address: the restarted server
// must NOT serve the old build's bytes.
func TestServerCodeVersionInvalidates(t *testing.T) {
	dir := t.TempDir()
	spec := litmusJob()

	_, c1 := newTestService(t, Config{CacheDir: dir, CodeVersion: "rev-a"})
	st1, _ := submitAndFetch(t, c1, spec)

	srv2, c2 := newTestService(t, Config{CacheDir: dir, CodeVersion: "rev-b"})
	st2, _ := submitAndFetch(t, c2, spec)
	if st2.Cached {
		t.Fatal("new code version served the old version's result")
	}
	if st1.Fingerprint == st2.Fingerprint {
		t.Fatal("code version does not participate in the fingerprint")
	}
	if srv2.Stats().Simulations != 1 {
		t.Fatal("new code version did not re-simulate")
	}
}

// heapInuse returns the live heap after a full collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestServerJobTableBounded is the job table's soak test: 20 ×
// keepFinished small litmus jobs, mostly repeats of one hot job, each
// waited for. The table never holds more than QueueDepth + Workers +
// keepFinished jobs, the heap stops growing once the finished ring is
// full, and an evicted job id is unknown while its result still answers
// by fingerprint.
func TestServerJobTableBounded(t *testing.T) {
	const queue, workers = 8, 2
	srv, c := newTestService(t, Config{Workers: workers, QueueDepth: queue, MemEntries: 16})
	bound := queue + workers + keepFinished
	var first, last JobStatus
	var firstBody []byte
	var heapFull uint64
	for i := 0; i < 20*keepFinished; i++ {
		spec := litmusJob()
		if i%16 == 15 { // a new job: same program, a budget no job used before
			spec = JobSpec{Litmus: &LitmusJob{Prog: "sb-drf", MaxStates: 100000 + i}}
		}
		st, err := srv.Submit(spec)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		j, ok := srv.lookup(st.ID)
		if !ok {
			t.Fatalf("job %d (%s) left the table before it finished", i, st.ID)
		}
		<-j.done
		if n := srv.Stats().Jobs; n > bound {
			t.Fatalf("after job %d the table holds %d jobs, bound %d", i, n, bound)
		}
		if i == 0 {
			first, firstBody = st, j.body
		}
		last = st
		if i+1 == 2*keepFinished {
			heapFull = heapInuse()
		}
	}
	if n := srv.Stats().Jobs; n != keepFinished {
		t.Errorf("with every job finished the table holds %d jobs, want %d", n, keepFinished)
	}
	// An unbounded table grows by about 0.5 KB a job: nearly 10 MB over
	// the jobs after the ring fills.
	const margin = 2 << 20
	end := heapInuse()
	t.Logf("heap in use: %d bytes after %d jobs, %d after %d", heapFull, 2*keepFinished, end, 20*keepFinished)
	if end > heapFull+margin {
		t.Errorf("heap grew from %d to %d bytes after the finished ring filled (margin %d)", heapFull, end, margin)
	}

	ctx := context.Background()
	newest, err := c.Result(ctx, last.ID, false)
	if err != nil {
		t.Fatalf("newest job %s: %v", last.ID, err)
	}
	if byFp, ok, err := c.ResultByFingerprint(ctx, last.Fingerprint); err != nil || !ok || !bytes.Equal(byFp, newest) {
		t.Errorf("newest job's fingerprint: ok=%v err=%v identical=%v", ok, err, bytes.Equal(byFp, newest))
	}
	for _, path := range []string{"", "/result", "/events"} {
		resp, err := http.Get(c.Base + "/v1/jobs/" + first.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s%s answered HTTP %d, want 404", first.ID, path, resp.StatusCode)
		}
	}
	if byFp, ok, err := c.ResultByFingerprint(ctx, first.Fingerprint); err != nil || !ok || !bytes.Equal(byFp, firstBody) {
		t.Errorf("evicted job's fingerprint: ok=%v err=%v identical=%v", ok, err, bytes.Equal(byFp, firstBody))
	}
}

// TestServerCountsOneMissPerMissingResult: a cold job's result is looked
// for three times (Submit's fast path, Cache.Do's lookup and its re-check
// under the flight lock) but is missing once, so it counts one miss; a
// repeat is a hit that counts none, and a fingerprint lookup that 404s
// counts one.
func TestServerCountsOneMissPerMissingResult(t *testing.T) {
	for name, dir := range map[string]string{"memory": "", "disk": t.TempDir()} {
		t.Run(name, func(t *testing.T) {
			s, c := newTestService(t, Config{CacheDir: dir})
			submitAndFetch(t, c, litmusJob())
			if st := s.Stats(); st.Simulations != 1 || st.Store.Misses != 1 {
				t.Fatalf("one cold job: %d simulations, %d misses; want 1 and 1", st.Simulations, st.Store.Misses)
			}
			if st, _ := submitAndFetch(t, c, litmusJob()); !st.Cached {
				t.Fatal("repeated job not answered from the store")
			}
			if _, ok, err := c.ResultByFingerprint(context.Background(), strings.Repeat("0", 64)); err != nil || ok {
				t.Fatalf("unknown fingerprint: ok=%v err=%v", ok, err)
			}
			if st := s.Stats(); st.Simulations != 1 || st.Store.Misses != 2 || st.Store.MemHits != 1 {
				t.Fatalf("after a hit and a 404: %d simulations, %d misses, %d mem hits; want 1, 2 and 1",
					st.Simulations, st.Store.Misses, st.Store.MemHits)
			}
		})
	}
}

// TestServerRecomputesCorruptStoreFile: a disk file with one flipped
// byte, or cut short, fails its digest. Get counts it as a corrupt miss
// and removes it, and a restarted server recomputes byte-identical
// bytes into a file that verifies again.
func TestServerRecomputesCorruptStoreFile(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"flipped byte": func(b []byte) []byte { b[len(b)-2] ^= 0x20; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			_, c1 := newTestService(t, Config{CacheDir: dir})
			st1, body1 := submitAndFetch(t, c1, litmusJob())
			fp := st1.Fingerprint
			path := filepath.Join(dir, fp[:2], fp+".json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			damaged := damage(bytes.Clone(data))
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}

			s, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := s.Get(fp); err != nil || ok {
				t.Fatalf("damaged file served: ok=%v err=%v", ok, err)
			}
			if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 || st.DiskHits != 0 {
				t.Fatalf("damaged file counted as %+v, want one corrupt miss", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged file not removed: %v", err)
			}

			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			srv2, c2 := newTestService(t, Config{CacheDir: dir})
			st2, body2 := submitAndFetch(t, c2, litmusJob())
			if st2.Cached {
				t.Fatal("restarted server answered from a damaged file")
			}
			if !bytes.Equal(body2, body1) {
				t.Fatal("recomputed body differs from the original")
			}
			if st := srv2.Stats(); st.Simulations != 1 || st.Store.Corrupt != 1 {
				t.Fatalf("restarted server: %d simulations, %d corrupt files; want 1 and 1", st.Simulations, st.Store.Corrupt)
			}
			s3, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := s3.Get(fp)
			if err != nil || !ok || !bytes.Equal(got, body1) {
				t.Fatalf("rewritten file: ok=%v err=%v identical=%v", ok, err, bytes.Equal(got, body1))
			}
		})
	}
}
