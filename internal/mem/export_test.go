package mem

// ChunkSize is the chunk size, for the tests outside the package.
const ChunkSize = chunkSize

// owns reports whether the RAM has materialized chunk ci.
func (r *RAM) owns(ci int) bool { return r.chunk(ci) != nil }

// Owns, DirLen and SeedImage let the tests that build whole systems look
// at a RAM's chunk directory.
func Owns(r *RAM, ci int) bool { return r.owns(ci) }
func DirLen(r *RAM) int        { return len(r.chunks) }
func SeedImage(r *RAM) *RAM    { return r.seed }
