package recycle

// Drain empties every free list, so that the runs after it allocate
// every buffer fresh.
func Drain() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, l := range registry.all {
		l.drain()
	}
}

// Held counts the buffers on every free list.
func Held() int {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	n := 0
	for _, l := range registry.all {
		n += l.held()
	}
	return n
}
