package sim

// Resource models a mutually exclusive, FIFO-granted hardware resource such
// as a memory bus or a DMA engine, using reservation arithmetic rather than
// a server process: a request made at time t is serviced in the first free
// slot at or after t. Because the kernel dispatches activity in
// nondecreasing time order, reservations are made in nondecreasing request
// time and the model is exact for FIFO arbitration (ties between requests in
// the same cycle are granted in event order, which is deterministic).
type Resource struct {
	k        *Kernel
	name     string
	nextFree Time

	// Stats.
	Grants    uint64 // number of reservations
	BusyTime  Time   // cycles the resource spent in service
	WaitTime  Time   // cycles requesters spent queued before service
	LastGrant Time
}

// NewResource returns a free resource on kernel k.
func NewResource(k *Kernel, name string) *Resource {
	return &Resource{k: k, name: name}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Use reserves the resource for dur cycles on behalf of process p, blocking
// p until service completes. It returns the number of cycles p spent queued
// before service began (the contention component of its stall).
func (r *Resource) Use(p *Proc, dur Time) (queued Time) {
	start, end := r.Reserve(p.Now(), dur)
	queued = start - p.Now()
	p.WaitUntil(end)
	return queued
}

// Reserve books the first [start, start+dur) service slot at or after t
// without blocking anyone. It is used by hardware agents that have no
// process context (e.g. a lock unit flushing a cache during lock transfer).
func (r *Resource) Reserve(t Time, dur Time) (start, end Time) {
	start = t
	if r.nextFree > start {
		start = r.nextFree
	}
	end = start + dur
	r.nextFree = end
	r.Grants++
	r.BusyTime += dur
	r.WaitTime += start - t
	r.LastGrant = start
	return start, end
}
