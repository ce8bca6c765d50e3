package workloads

import (
	"testing"

	"pmc/internal/rt"
	"pmc/internal/sim"
)

// TestKernelCounters pins the kernel's work on one small run, radiosity on
// dsm at 8 ring tiles. Step chains dispatch exactly the events of the
// per-line wait loop they replaced (32,242), with far fewer coroutine
// resumes than its 30,330.
func TestKernelCounters(t *testing.T) {
	const loopEvents, loopResumes = 32242, 30330
	app, _ := Scaled("radiosity", true)
	var k *sim.Kernel
	res, err := run(app, smallCfg(8), "dsm", func(r *rt.Runtime) { k = r.Sys.K })
	if err != nil {
		t.Fatal(err)
	}
	c := k.Counters
	t.Logf("%+v", c)
	if res.Kernel != c {
		t.Errorf("Result.Kernel = %+v, want the kernel's %+v", res.Kernel, c)
	}
	if c.Events != loopEvents {
		t.Errorf("events = %d, want %d", c.Events, loopEvents)
	}
	if c.Resumes >= loopResumes {
		t.Errorf("resumes = %d, want fewer than %d", c.Resumes, loopResumes)
	}
	if c.ChainSteps == 0 || c.FastWaits == 0 {
		t.Errorf("counters %+v: chain steps and fast waits must both occur", c)
	}
}
