package pmcd

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hexKey returns a distinct valid store key per index.
func hexKey(i int) string {
	return fmt.Sprintf("%064x", 0xabc0+i)
}

func TestStorePersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	body := []byte(`{"v":1}` + "\n")
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(hexKey(1), body); err != nil {
		t.Fatal(err)
	}
	// A second Open over the same directory is a server restart: the disk
	// tier survives.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get(hexKey(1))
	if err != nil || !ok {
		t.Fatalf("Get after reopen: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("reopened body %q != stored %q", got, body)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.MemHits != 0 {
		t.Fatalf("expected one disk hit, got %+v", st)
	}
	// The disk hit promoted the entry; the next Get is a memory hit.
	if _, ok, _ := s2.Get(hexKey(1)); !ok {
		t.Fatal("promoted entry vanished")
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("expected promotion to memory, got %+v", st)
	}
}

func TestStoreLRUEvictionFallsBackToDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(hexKey(i), []byte(fmt.Sprintf("body%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.MemEntries != 2 {
		t.Fatalf("LRU holds %d entries, capacity is 2", st.MemEntries)
	}
	// Key 0 was evicted from memory but the disk tier still serves it —
	// eviction is a capacity decision, never data loss.
	got, ok, err := s.Get(hexKey(0))
	if err != nil || !ok || string(got) != "body0" {
		t.Fatalf("evicted key not served from disk: ok=%v err=%v body=%q", ok, err, got)
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("expected a disk hit for the evicted key, got %+v", st)
	}

	// Memory-only stores do lose evicted entries; that is the documented
	// trade of running without a cache directory.
	m, err := Open("", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Put(hexKey(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := m.Get(hexKey(0)); ok {
		t.Fatal("memory-only store served an evicted entry")
	}
}

func TestStoreRejectsNonFingerprintKeys(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"",
		"short",
		"../../../../etc/passwd",
		strings.Repeat("A", 64),             // uppercase
		strings.Repeat("a", 15),             // too short
		"abcd/ef" + strings.Repeat("0", 57), // path shape
	} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put accepted non-fingerprint key %q", key)
		}
	}
}

// TestStoreGC: entries past the age bound are removed from disk AND
// from the memory tier (a purged key must be a miss, not a stale mem
// hit), newer entries and the counters survive, and crashed-writer temp
// files are swept. Ages are simulated by backdating mtimes.
func TestStoreGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-48 * time.Hour)
	var oldBytes int64
	for i := 0; i < 5; i++ {
		body := []byte(fmt.Sprintf(`{"v":%d}`, i))
		if err := s.Put(hexKey(i), body); err != nil {
			t.Fatal(err)
		}
		if i < 3 { // first three are "two days old"
			if err := os.Chtimes(s.path(hexKey(i)), old, old); err != nil {
				t.Fatal(err)
			}
			oldBytes += int64(digestLen + len(body))
		}
	}
	// A torn temp file from a crashed writer, also old.
	tmp := filepath.Join(dir, hexKey(0)[:2], "."+hexKey(0)[:8]+".tmp123")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}

	g, err := s.GC(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	want := GCStats{Scanned: 5, Purged: 3, Kept: 2, Bytes: oldBytes}
	if g != want {
		t.Fatalf("GC stats %+v, want %+v", g, want)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived GC: %v", err)
	}
	// Purged keys are gone from both tiers; kept keys still serve.
	for i := 0; i < 5; i++ {
		_, ok, err := s.Get(hexKey(i))
		if err != nil {
			t.Fatal(err)
		}
		if wantOK := i >= 3; ok != wantOK {
			t.Errorf("after GC, Get(%d) ok=%v, want %v", i, ok, wantOK)
		}
	}
	if st := s.Stats(); st.MemEntries != 2 {
		t.Fatalf("memory tier holds %d entries after GC, want 2 (%+v)", st.MemEntries, st)
	}
	// A second pass finds nothing to do.
	if g, err := s.GC(24 * time.Hour); err != nil || g.Purged != 0 || g.Kept != 2 {
		t.Fatalf("second GC pass: %+v err=%v", g, err)
	}
	// Purged keys are recomputable: a fresh Put brings one back.
	if err := s.Put(hexKey(0), []byte("again")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(hexKey(0)); !ok {
		t.Fatal("re-Put after GC not served")
	}
}

func TestStoreGCMemoryOnlyNoop(t *testing.T) {
	s, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(hexKey(1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	g, err := s.GC(0)
	if err != nil || g != (GCStats{}) {
		t.Fatalf("memory-only GC: %+v err=%v", g, err)
	}
	if _, ok, _ := s.Get(hexKey(1)); !ok {
		t.Fatal("memory-only GC dropped a live entry")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	store, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(store)
	key := hexKey(42)
	body := []byte("result")

	var computes atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	const clients = 16
	results := make([][]byte, clients)
	hits := make([]bool, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			b, hit, err := c.Do(key, func() ([]byte, error) {
				computes.Add(1)
				return body, nil
			})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i], hits[i] = b, hit
		}(i)
	}
	close(start)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computes for one key; single-flight must run exactly 1", n)
	}
	if n := c.Simulations(); n != 1 {
		t.Fatalf("Simulations() = %d, want 1", n)
	}
	leaders := 0
	for i := range results {
		if !bytes.Equal(results[i], body) {
			t.Fatalf("client %d got body %q", i, results[i])
		}
		if !hits[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders; exactly one caller pays for the simulation", leaders)
	}
	// After completion the store answers without any flight.
	if _, hit, err := c.Do(key, func() ([]byte, error) {
		t.Fatal("recompute of a stored key")
		return nil, nil
	}); err != nil || !hit {
		t.Fatalf("stored key not served as a hit: hit=%v err=%v", hit, err)
	}
}

func TestCacheFailedComputeRetries(t *testing.T) {
	store, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(store)
	key := hexKey(7)
	if _, _, err := c.Do(key, func() ([]byte, error) {
		return nil, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("failed compute reported success")
	}
	// Failures are not stored: the next Do runs a fresh compute.
	b, hit, err := c.Do(key, func() ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || hit || string(b) != "ok" {
		t.Fatalf("retry after failure: body=%q hit=%v err=%v", b, hit, err)
	}
}

// TestCachePanicFailsFlight: a panicking compute becomes the flight's error
// for the leader and for a waiter attached to it, and the key is not left
// in flight — the next Do computes afresh.
func TestCachePanicFailsFlight(t *testing.T) {
	store, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(store)
	key := hexKey(9)
	leading := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		<-leading
		_, _, err := c.Do(key, func() ([]byte, error) {
			t.Error("waiter computed while the leader was in flight")
			return nil, nil
		})
		waiterErr <- err
	}()
	_, _, err = c.Do(key, func() ([]byte, error) {
		close(leading)
		for c.dedups.Load() == 0 { // hold the flight until the waiter attaches
			time.Sleep(time.Millisecond)
		}
		panic("engine exploded")
	})
	if err == nil || !strings.Contains(err.Error(), "engine exploded") {
		t.Fatalf("leader: err = %v, want the panic as an error", err)
	}
	if err := <-waiterErr; err == nil || !strings.Contains(err.Error(), "engine exploded") {
		t.Fatalf("waiter: err = %v, want the leader's panic as an error", err)
	}
	b, hit, err := c.Do(key, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(b) != "ok" {
		t.Fatalf("retry after panic: body=%q hit=%v err=%v", b, hit, err)
	}
	if n := c.Simulations(); n != 2 {
		t.Fatalf("Simulations() = %d, want 2 (the panicked compute and the retry)", n)
	}
}
