package workloads

import "pmc/internal/rt"

// MsgPass is the running example of Figs. 1/5/6 as a simulated workload:
// tile 0 publishes a payload under entry_x/exit_x, sets a flushed flag, and
// every other tile polls the flag and then reads the payload under its own
// acquire. Annotated correctly it must deliver the payload on every
// backend; it is the quickstart example and the smoke test of the whole
// stack.
type MsgPass struct {
	// PayloadWords is the message size.
	PayloadWords int
	// Value seeds the payload contents.
	Value uint32

	data *rt.Object
	flag *rt.Object
	got  *rt.Object
}

// DefaultMsgPass returns the standard configuration.
func DefaultMsgPass() *MsgPass { return &MsgPass{PayloadWords: 8, Value: 42} }

// Name implements App.
func (a *MsgPass) Name() string { return "msgpass" }

// Setup implements App.
func (a *MsgPass) Setup(r *rt.Runtime, tiles int) {
	a.data = r.Alloc("X", a.PayloadWords*4)
	a.flag = r.Alloc("flag", 4)
	a.got = r.Alloc("got", 4*tiles)
}

// Worker implements App.
func (a *MsgPass) Worker(c *rt.Ctx, tile, tiles int) {
	c.SetCodeFootprint(1024)
	if tile == 0 {
		c.EntryX(a.data)
		for w := 0; w < a.PayloadWords; w++ {
			c.Write32(a.data, 4*w, a.Value+uint32(w))
		}
		c.Fence()
		c.ExitX(a.data)
		c.EntryX(a.flag)
		c.Write32(a.flag, 0, 1)
		c.Flush(a.flag)
		c.ExitX(a.flag)
		return
	}
	for {
		c.EntryRO(a.flag)
		v := c.Read32(a.flag, 0)
		c.ExitRO(a.flag)
		if v == 1 {
			break
		}
		c.Compute(8)
	}
	c.Fence()
	var fold uint32
	c.EntryX(a.data)
	for w := 0; w < a.PayloadWords; w++ {
		fold = fold*31 + c.Read32(a.data, 4*w)
	}
	c.ExitX(a.data)
	c.EntryX(a.got)
	c.Write32(a.got, 4*tile, fold)
	c.ExitX(a.got)
}

// Checksum implements App: every receiving tile must have folded the same
// payload.
func (a *MsgPass) Checksum(r *rt.Runtime) uint32 {
	return r.ReadObjectWord(a.got, 1)
}

// Expected returns the fold every receiver must produce.
func (a *MsgPass) Expected() uint32 {
	var fold uint32
	for w := 0; w < a.PayloadWords; w++ {
		fold = fold*31 + a.Value + uint32(w)
	}
	return fold
}
