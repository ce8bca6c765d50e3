package pmcd

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The result store is two-tiered: a bounded in-memory LRU in front of a
// content-addressed disk store. Keys are result fingerprints (hex SHA-256,
// see Fingerprint), values are the deterministic result bodies. Because a
// key commits to the full computation and the code version, a stored body
// never goes stale — eviction is purely a capacity decision, and the
// disk tier can be persisted across server restarts.
//
// A disk file is the hex SHA-256 of the body, a newline, then the body.
// Get checks the digest, so a flipped or truncated file is a miss that
// the next computation rewrites, never a wrong result.

// StoreStats are the store's monotonic counters.
type StoreStats struct {
	// MemHits served from the LRU tier, DiskHits from the disk tier
	// (promoting to memory), Misses found in neither. A miss counts a
	// result that was looked for and missing, once: the lookups a
	// computation makes before and after it claims the key count none.
	MemHits  int64 `json:"mem_hits"`
	DiskHits int64 `json:"disk_hits"`
	Misses   int64 `json:"misses"`
	// Puts counts stored results; MemEntries is the current LRU size.
	Puts       int64 `json:"puts"`
	MemEntries int64 `json:"mem_entries"`
	// Corrupt counts disk files whose digest did not match (or that were
	// too short to hold one); each was removed and counted as a miss.
	Corrupt int64 `json:"corrupt"`
}

// Store is the two-tier content-addressed result store. The zero value is
// not usable; Open it.
type Store struct {
	dir string // "" = memory-only

	mu      sync.Mutex
	lru     *list.List // front = most recent; values are *storeEntry
	entries map[string]*list.Element
	cap     int

	memHits, diskHits, misses, puts, corrupt atomic.Int64
}

// digestLen is the length of a disk file's header: the hex SHA-256 of
// the body and a newline.
const digestLen = 2*sha256.Size + 1

// digest returns the disk header for body.
func digest(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(hex.AppendEncode(make([]byte, 0, digestLen), sum[:]), '\n')
}

type storeEntry struct {
	key  string
	body []byte
}

// Open returns a store over dir (created if missing; "" keeps results in
// memory only) with an LRU tier of memEntries results (0 = 128).
func Open(dir string, memEntries int) (*Store, error) {
	if memEntries <= 0 {
		memEntries = 128
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("pmcd: store dir: %w", err)
		}
	}
	return &Store{
		dir:     dir,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
		cap:     memEntries,
	}, nil
}

// Get returns the stored body for key, counting a miss when there is
// none. The returned slice is shared — callers must not modify it.
func (s *Store) Get(key string) ([]byte, bool, error) {
	body, ok, err := s.lookup(key)
	if err == nil && !ok {
		s.misses.Add(1)
	}
	return body, ok, err
}

// lookup is Get without counting a miss, for a check whose miss another
// Get of the same key counts: Submit's fast path before the worker's
// Cache.Do, and Do's re-check after its first Get.
func (s *Store) lookup(key string) ([]byte, bool, error) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		body := el.Value.(*storeEntry).body
		s.mu.Unlock()
		s.memHits.Add(1)
		return body, true, nil
	}
	s.mu.Unlock()
	if s.dir == "" {
		return nil, false, nil
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("pmcd: store read: %w", err)
	}
	if len(data) < digestLen || !bytes.Equal(data[:digestLen], digest(data[digestLen:])) {
		// A failed remove changes nothing: the recompute's Put renames
		// over the file. A remove racing that Put costs one more compute.
		os.Remove(path)
		s.corrupt.Add(1)
		return nil, false, nil
	}
	body := data[digestLen:]
	s.diskHits.Add(1)
	s.promote(key, body)
	return body, true, nil
}

// Put stores body under key in both tiers. Writes to the disk tier are
// atomic (temp file + rename), so a crashed or raced server never leaves
// a torn body behind; the file carries the body's digest for Get to
// check.
func (s *Store) Put(key string, body []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	if s.dir != "" {
		path := s.path(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("pmcd: store write: %w", err)
		}
		tmp, err := os.CreateTemp(filepath.Dir(path), "."+key[:8]+".tmp*")
		if err != nil {
			return fmt.Errorf("pmcd: store write: %w", err)
		}
		if _, err := tmp.Write(append(digest(body), body...)); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("pmcd: store write: %w", err)
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("pmcd: store write: %w", err)
		}
		if err := os.Rename(tmp.Name(), path); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("pmcd: store write: %w", err)
		}
	}
	s.puts.Add(1)
	s.promote(key, body)
	return nil
}

// promote inserts key at the LRU front, evicting past capacity.
func (s *Store) promote(key string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		el.Value.(*storeEntry).body = body
		return
	}
	s.entries[key] = s.lru.PushFront(&storeEntry{key: key, body: body})
	for s.lru.Len() > s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*storeEntry).key)
	}
}

// GCStats summarizes one GC pass over the disk tier.
type GCStats struct {
	// Scanned counts stored bodies examined; Purged of those were older
	// than the age bound and removed, Kept remain. Bytes is the disk
	// space reclaimed by the purge.
	Scanned int   `json:"scanned"`
	Purged  int   `json:"purged"`
	Kept    int   `json:"kept"`
	Bytes   int64 `json:"bytes"`
}

func (g GCStats) String() string {
	return fmt.Sprintf("scanned %d, purged %d (%d bytes), kept %d", g.Scanned, g.Purged, g.Bytes, g.Kept)
}

// GC removes disk-tier bodies whose last write is older than maxAge and
// purges them from the memory tier, returning what it did. Content
// addressing makes age the only sensible policy: a body never goes
// stale, so GC is purely a disk-capacity bound for long-lived caches
// (a developer's ~/.cache). Removals are
// independent atomic deletes — a GC racing a Put of the same key at
// worst deletes the body the Put immediately re-creates, never tears
// it. Leftover temp files from crashed writers past the age bound are
// swept too (they are never counted as stored bodies). Memory-only
// stores have nothing on disk; GC is a no-op there.
func (s *Store) GC(maxAge time.Duration) (GCStats, error) {
	var g GCStats
	if s.dir == "" {
		return g, nil
	}
	cutoff := time.Now().Add(-maxAge)
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return g, fmt.Errorf("pmcd: store gc: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		shardDir := filepath.Join(s.dir, shard.Name())
		files, err := os.ReadDir(shardDir)
		if err != nil {
			return g, fmt.Errorf("pmcd: store gc: %w", err)
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			path := filepath.Join(shardDir, f.Name())
			info, err := f.Info()
			if err != nil {
				if os.IsNotExist(err) {
					continue // raced with another GC
				}
				return g, fmt.Errorf("pmcd: store gc: %w", err)
			}
			key, isBody := strings.CutSuffix(f.Name(), ".json")
			if !isBody || validKey(key) != nil {
				// A crashed writer's temp file: sweep it once it is
				// certainly not being renamed into place anymore.
				if info.ModTime().Before(cutoff) {
					os.Remove(path)
				}
				continue
			}
			g.Scanned++
			if !info.ModTime().Before(cutoff) {
				g.Kept++
				continue
			}
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return g, fmt.Errorf("pmcd: store gc: %w", err)
			}
			g.Purged++
			g.Bytes += info.Size()
			s.mu.Lock()
			if el, ok := s.entries[key]; ok {
				s.lru.Remove(el)
				delete(s.entries, key)
			}
			s.mu.Unlock()
		}
		// An emptied shard directory is recreated by the next Put; a
		// non-empty one makes Remove fail, which is the desired check.
		os.Remove(shardDir)
	}
	return g, nil
}

// Stats snapshots the counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	n := int64(s.lru.Len())
	s.mu.Unlock()
	return StoreStats{
		MemHits:  s.memHits.Load(),
		DiskHits: s.diskHits.Load(),
		Misses:   s.misses.Load(),
		Puts:     s.puts.Load(),

		MemEntries: n,
		Corrupt:    s.corrupt.Load(),
	}
}

// path shards the content-addressed files by the key's first byte so one
// directory never holds the whole store.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// validKey guards the disk layout: keys are lowercase-hex fingerprints,
// never attacker-shaped paths.
func validKey(key string) error {
	if len(key) < 16 {
		return fmt.Errorf("pmcd: store key %q too short", key)
	}
	if strings.IndexFunc(key, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f')
	}) >= 0 {
		return fmt.Errorf("pmcd: store key %q is not a hex fingerprint", key)
	}
	return nil
}

// Cache wraps the store with single-flight computation: Do guarantees at
// most one compute per key is ever in flight, concurrent callers for the
// same key share the leader's result, and completed results come from the
// store without recomputation. This is the invariant the concurrent-
// client tests pin: N clients submitting the same job cost one simulation.
type Cache struct {
	store *Store

	mu       sync.Mutex
	inflight map[string]*flight

	sims atomic.Int64
	// dedups counts callers that attached to another caller's in-flight
	// compute.
	dedups atomic.Int64
}

type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// NewCache wraps store.
func NewCache(store *Store) *Cache {
	return &Cache{store: store, inflight: make(map[string]*flight)}
}

// Store returns the underlying two-tier store.
func (c *Cache) Store() *Store { return c.store }

// Simulations returns how many computes actually ran (cache misses that
// led the flight).
func (c *Cache) Simulations() int64 { return c.sims.Load() }

// Do returns the body for key, computing it at most once: a stored result
// is served as-is (hit=true); otherwise one caller runs compute and
// stores the body while concurrent callers for the same key wait and
// share it (hit=true for them too — they did not pay for a simulation).
// Failed computes are not stored; the error is shared with attached
// callers and the next Do retries. A panicking compute fails its flight
// the same way, so it neither kills the caller nor strands the waiters.
func (c *Cache) Do(key string, compute func() ([]byte, error)) (body []byte, hit bool, err error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	if body, ok, err := c.store.Get(key); err != nil {
		return nil, false, err
	} else if ok {
		return body, true, nil
	}
	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.dedups.Add(1)
		<-f.done
		if f.err != nil {
			return nil, true, f.err
		}
		return f.body, true, nil
	}
	// A leader may have stored its body and retired its flight between the
	// lookup above and taking the lock; electing a second leader then
	// would compute the same key twice. The Get above counted the miss.
	if body, ok, err := c.store.lookup(key); err != nil || ok {
		c.mu.Unlock()
		return body, ok, err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	c.sims.Add(1)
	f.body, f.err = computeSafely(compute)
	if f.err == nil {
		f.err = c.store.Put(key, f.body)
	}
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return f.body, false, f.err
}

// computeSafely runs compute, turning a panic into the flight's error.
func computeSafely(compute func() ([]byte, error)) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			body, err = nil, fmt.Errorf("pmcd: compute panicked: %v", r)
		}
	}()
	return compute()
}
