package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"pmc/internal/mem"
	"pmc/internal/noc"
	"pmc/internal/rt"
	"pmc/internal/soc"
)

// goldenPlatformDigest is the SHA-256 of platformDigestInput: every
// workload at small scale on the replica and staging protocols at both
// memory levels (dsm, cdsm, spm, cspm) and on adaptive, on an 8-tile ring
// and a 16-tile cluster:4xring, plus two mixed placements. It pins what
// the simulated platform observes of each run — makespan, checksum, every
// tile's counters, NoC traffic and every local and cluster memory's core
// access counts — so a refactor of the memory-level plumbing that is
// meant to be behaviour-preserving can prove it is.
const goldenPlatformDigest = "b05b203c80f6703a02565b9b2463448813b00abd4be9e999046d0661afea3f67"

// platformRun is one line of the digest input.
type platformRun struct {
	app, backend string
	tiles        int
	topo         string
	place        map[string]string
}

func platformRuns() []platformRun {
	var runs []platformRun
	for _, plat := range []struct {
		tiles int
		topo  string
	}{{8, "ring"}, {16, "cluster:4xring"}} {
		for _, app := range Names {
			for _, b := range []string{"dsm", "cdsm", "spm", "cspm", "adaptive"} {
				runs = append(runs, platformRun{app: app, backend: b, tiles: plat.tiles, topo: plat.topo})
			}
		}
	}
	return append(runs,
		platformRun{app: "stencil", backend: "spm", tiles: 8, topo: "ring", place: map[string]string{"seg*": "dsm"}},
		platformRun{app: "stencil", backend: "cspm", tiles: 16, topo: "cluster:4xring", place: map[string]string{"seg*": "cdsm"}},
	)
}

// platformLine runs one configuration and renders everything the digest
// pins about it.
func platformLine(t *testing.T, pl platformRun) string {
	t.Helper()
	app, ok := Scaled(pl.app, true)
	if !ok {
		t.Fatalf("unknown workload %q", pl.app)
	}
	cfg := smallCfg(pl.tiles)
	tp, err := noc.ParseTopology(pl.topo)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoC.Topology = tp
	var sys *soc.System
	res, err := run(app, cfg, pl.backend, func(r *rt.Runtime) {
		sys = r.Sys
		if pl.place != nil {
			r.SetPlacement(pl.place)
		}
	})
	if err != nil {
		t.Fatalf("%s/%s/%d/%s: %v", pl.app, pl.backend, pl.tiles, pl.topo, err)
	}
	line := fmt.Sprintf("%s/%s/%dt/%s place=%v: cycles=%d checksum=%#x noc=%d/%d/%d/%d/%d",
		pl.app, pl.backend, pl.tiles, pl.topo, pl.place, res.Cycles, res.Checksum,
		res.NoCMessages, res.NoCBytes, res.FlitHops, res.LocalFlitHops, res.GlobalFlitHops)
	for i, tile := range sys.Tiles {
		line += fmt.Sprintf(" t%d=%+v", i, tile.Stats)
	}
	memLine := func(tag string, l *mem.Local) {
		line += fmt.Sprintf(" %s=%d/%d/%d", tag, l.CoreReads, l.CoreWrites, l.NoCWrites)
	}
	for i, l := range sys.Locals {
		memLine(fmt.Sprintf("l%d", i), l)
	}
	for _, cl := range sys.Clusters {
		memLine(fmt.Sprintf("c%d", cl.ID), cl.Scratch)
	}
	return line
}

func platformDigestInput(t *testing.T) []byte {
	t.Helper()
	var b []byte
	for _, pl := range platformRuns() {
		b = append(b, platformLine(t, pl)...)
		b = append(b, '\n')
	}
	return b
}

// TestPlatformGoldenDigest: the golden run set reproduces the pinned
// platform digest.
func TestPlatformGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("142 simulated runs")
	}
	in := platformDigestInput(t)
	sum := sha256.Sum256(in)
	if got := hex.EncodeToString(sum[:]); got != goldenPlatformDigest {
		t.Fatalf("platform digest = %s, want %s\n%s", got, goldenPlatformDigest, in)
	}
}
