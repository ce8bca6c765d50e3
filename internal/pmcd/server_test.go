package pmcd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
	if _, err := c.Status(ctx, "j999"); err == nil {
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
	if sims := srv.Cache().Simulations(); sims != int64(len(specs)) {
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
