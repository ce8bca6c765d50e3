package sim

// Resource models a mutually exclusive, FIFO-granted hardware resource such
// as a memory bus or a DMA engine, using reservation arithmetic rather than
// a server process: a request made at time t is serviced in the first free
// slot at or after t. Because the kernel dispatches activity in
// nondecreasing time order, reservations are made in nondecreasing request
// time and the model is exact for FIFO arbitration (ties between requests in
// the same cycle are granted in event order, which is deterministic). The
// zero value is a free resource.
type Resource struct {
	nextFree Time

	// Stats.
	Grants    uint64 // number of reservations
	BusyTime  Time   // cycles the resource spent in service
	WaitTime  Time   // cycles requesters spent queued before service
	LastGrant Time
}

// Reserve books the first [start, start+dur) service slot at or after t
// without blocking anyone: a requester that must stall waits until end
// itself, and hardware agents with no process context (e.g. a lock unit
// flushing a cache during lock transfer) just take the slot.
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
