package pmcd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The job service. Submissions enter a FIFO queue and run on a bounded
// worker pool; every job resolves through the single-flight cache, so the
// service's cost is one simulation per distinct fingerprint no matter how
// many clients ask. The HTTP surface is deliberately small and
// stdlib-only:
//
//	POST /v1/jobs            submit a JobSpec        -> JobStatus
//	GET  /v1/jobs/{id}       job status              -> JobStatus
//	GET  /v1/jobs/{id}/result completed result body  (exact stored bytes)
//	GET  /v1/jobs/{id}/events NDJSON status stream until done/failed
//	GET  /v1/results/{fp}    content-addressed lookup, 404 on miss
//	GET  /v1/stats           service + store counters
//	GET  /v1/healthz         liveness
//
// Results are served byte-identically to the simulation that produced
// them: the result endpoint writes the stored body verbatim.
//
// The job table keeps every queued and running job but only the newest
// keepFinished finished ones, so it never holds more than QueueDepth +
// Workers + keepFinished jobs however long the submission stream runs.
// An evicted job id answers like one that never existed (404 "unknown
// job" on status, result and events); its result stays reachable by the
// fingerprint the submit response returned, GET /v1/results/{fp}, for as
// long as the store keeps it.

// keepFinished is how many finished (done or failed) jobs the job table
// keeps; the oldest beyond it are evicted.
const keepFinished = 1024

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Config configures a server.
type Config struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the FIFO job queue (0 = 256); a full queue
	// rejects submissions with 503 rather than buffering unboundedly.
	QueueDepth int
	// CacheDir is the disk tier of the result store ("" = memory-only).
	CacheDir string
	// MemEntries is the LRU tier's capacity (0 = 128).
	MemEntries int
	// CodeVersion overrides the fingerprint code-version component
	// ("" = CodeVersion()).
	CodeVersion string
}

// JobStatus is the externally visible state of a job.
type JobStatus struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	State       string `json:"state"`
	// Cached marks a job answered from the result store without any
	// simulation; Deduped marks one that attached to an identical
	// in-flight job's simulation.
	Cached  bool   `json:"cached,omitempty"`
	Deduped bool   `json:"deduped,omitempty"`
	Error   string `json:"error,omitempty"`
	// Progress of the running computation (kind-specific units: sweep
	// cells, fuzz programs).
	ProgressDone  int64 `json:"progress_done"`
	ProgressTotal int64 `json:"progress_total"`
}

// Stats is the service-wide counter snapshot.
type Stats struct {
	CodeVersion string `json:"code_version"`
	Submitted   int64  `json:"submitted"`
	Done        int64  `json:"done"`
	Failed      int64  `json:"failed"`
	// Cached jobs were answered from the store at submit time; Deduped
	// jobs shared another job's in-flight simulation; Simulations is how
	// many computations actually ran.
	Cached      int64      `json:"cached"`
	Deduped     int64      `json:"deduped"`
	Simulations int64      `json:"simulations"`
	QueueDepth  int        `json:"queue_depth"`
	Workers     int        `json:"workers"`
	Store       StoreStats `json:"store"`
	// Jobs is the job table's current size: every queued and running
	// job plus at most keepFinished finished ones.
	Jobs int `json:"jobs"`
}

// job is the server-side job record.
type job struct {
	id          string
	kind        string
	fingerprint string
	spec        JobSpec // normalized
	progress    Progress

	mu      sync.Mutex
	state   string
	cached  bool
	deduped bool
	errMsg  string
	body    []byte
	done    chan struct{} // closed on done/failed
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	d, t := j.progress.Snapshot()
	return JobStatus{
		ID: j.id, Kind: j.kind, Fingerprint: j.fingerprint, State: j.state,
		Cached: j.cached, Deduped: j.deduped, Error: j.errMsg,
		ProgressDone: d, ProgressTotal: t,
	}
}

// Server is the content-addressed simulation service.
type Server struct {
	cfg         Config
	codeVersion string
	cache       *Cache
	queue       chan *job

	mu   sync.Mutex
	jobs map[string]*job
	// finished is a ring of the newest finished jobs; next is the slot
	// the next one takes, evicting the job it displaces from jobs.
	finished [keepFinished]*job
	next     int

	nextID    atomic.Int64
	submitted atomic.Int64
	doneCount atomic.Int64
	failed    atomic.Int64
	cachedCnt atomic.Int64
	dedupCnt  atomic.Int64

	wg      sync.WaitGroup
	closing chan struct{}
}

// New assembles a server (opening the result store) and starts its worker
// pool. Close it to drain.
func New(cfg Config) (*Server, error) {
	store, err := Open(cfg.CacheDir, cfg.MemEntries)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 256
	}
	cv := cfg.CodeVersion
	if cv == "" {
		cv = CodeVersion()
	}
	s := &Server{
		cfg:         cfg,
		codeVersion: cv,
		cache:       NewCache(store),
		queue:       make(chan *job, depth),
		jobs:        make(map[string]*job),
		closing:     make(chan struct{}),
	}
	s.cfg.Workers = workers
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// CodeVersionUsed returns the code-version component the server salts
// fingerprints with.
func (s *Server) CodeVersionUsed() string { return s.codeVersion }

// Close stops accepting queued work and waits for in-flight jobs.
func (s *Server) Close() {
	close(s.closing)
	s.wg.Wait()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closing:
			return
		case j := <-s.queue:
			s.execute(j)
		}
	}
}

// execute resolves one queued job through the single-flight cache.
func (s *Server) execute(j *job) {
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	body, hit, err := s.cache.Do(j.fingerprint, func() ([]byte, error) {
		res, err := Run(j.spec, &j.progress)
		if err != nil {
			return nil, err
		}
		return res.Body()
	})
	j.mu.Lock()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		s.failed.Add(1)
	} else {
		j.state = StateDone
		j.body = body
		// A hit at execution time means another job's simulation (or a
		// store entry that appeared after submit) answered this one.
		j.deduped = hit
		s.doneCount.Add(1)
		if hit {
			s.dedupCnt.Add(1)
		}
	}
	j.mu.Unlock()
	// Retire before waking the waiters: a woken client must find the job
	// among the finished ones, not still counted as running.
	s.retire(j)
	close(j.done)
}

// Submit validates, fingerprints and either answers a job from the store
// (state "done", Cached) or enqueues it. It is the programmatic form of
// POST /v1/jobs.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return JobStatus{}, err
	}
	fp, err := Fingerprint(norm, s.codeVersion)
	if err != nil {
		return JobStatus{}, err
	}
	j := &job{
		id:          fmt.Sprintf("j%d", s.nextID.Add(1)),
		kind:        norm.Kind(),
		fingerprint: fp,
		spec:        norm,
		state:       StateQueued,
		done:        make(chan struct{}),
	}
	// Fast path: the store already holds this fingerprint — the job is
	// done before it ever queues, and costs no simulation. A miss here is
	// counted by the worker's Cache.Do.
	if body, ok, err := s.cache.Store().lookup(fp); err != nil {
		return JobStatus{}, err
	} else if ok {
		j.state = StateDone
		j.cached = true
		j.body = body
		s.submitted.Add(1)
		s.cachedCnt.Add(1)
		s.doneCount.Add(1)
		s.retire(j)
		close(j.done)
		return j.status(), nil
	}
	// Enqueueing under s.mu keeps a worker from retiring the job before
	// the table holds it.
	s.mu.Lock()
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		return JobStatus{}, errQueueFull
	}
	s.submitted.Add(1)
	return j.status(), nil
}

var errQueueFull = fmt.Errorf("pmcd: job queue full")

// retire gives a finished job the ring's next slot and evicts the job
// that slot held from the table. A queued job is in the table already; a
// cached one enters it here, in the same step, so the table never holds
// a finished job the ring does not.
func (s *Server) retire(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	if old := s.finished[s.next]; old != nil {
		delete(s.jobs, old.id)
	}
	s.finished[s.next] = j
	s.next = (s.next + 1) % keepFinished
	s.mu.Unlock()
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	return j, ok
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	return Stats{
		CodeVersion: s.codeVersion,
		Submitted:   s.submitted.Load(),
		Done:        s.doneCount.Load(),
		Failed:      s.failed.Load(),
		Cached:      s.cachedCnt.Load(),
		Deduped:     s.dedupCnt.Load(),
		Simulations: s.cache.Simulations(),
		QueueDepth:  len(s.queue),
		Workers:     s.cfg.Workers,
		Store:       s.cache.Store().Stats(),
		Jobs:        jobs,
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/results/{fp}", s.handleByFingerprint)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "code_version": s.codeVersion})
	})
	return mux
}

// maxJobSpecBytes bounds a POST /v1/jobs body. Real job specs are a few
// hundred bytes; the bound keeps a hostile client from making the decoder
// buffer an unbounded body.
const maxJobSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("pmcd: bad job spec: %w", err))
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if err == errQueueFull {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("pmcd: unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("pmcd: unknown job %q", r.PathValue("id")))
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
	st := j.status()
	switch st.State {
	case StateDone:
	case StateFailed:
		httpError(w, http.StatusInternalServerError, fmt.Errorf("pmcd: job %s failed: %s", st.ID, st.Error))
		return
	default:
		httpError(w, http.StatusConflict, fmt.Errorf("pmcd: job %s is %s; poll status, stream events, or pass ?wait=1", st.ID, st.State))
		return
	}
	j.mu.Lock()
	body := j.body
	j.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Pmcd-Fingerprint", st.Fingerprint)
	w.Write(body)
}

// handleEvents streams the job's status as NDJSON: one JobStatus line per
// observed change (state or progress), ending with the terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("pmcd: unknown job %q", r.PathValue("id")))
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	var last JobStatus
	emit := func(st JobStatus) {
		enc.Encode(st)
		if flusher != nil {
			flusher.Flush()
		}
		last = st
	}
	emit(j.status())
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	for last.State != StateDone && last.State != StateFailed {
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			emit(j.status())
			return
		case <-ticker.C:
			if st := j.status(); st != last {
				emit(st)
			}
		}
	}
}

func (s *Server) handleByFingerprint(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if err := validKey(fp); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	body, ok, err := s.cache.Store().Get(fp)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("pmcd: no result for fingerprint %s", fp))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
