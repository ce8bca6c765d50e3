// Command pmcd is the content-addressed simulation service and its thin
// client. The server exposes the repo's deterministic engines (sweep,
// litmus, fuzz) as an HTTP/JSON job API with a bounded worker pool, a
// FIFO queue with streaming NDJSON progress, and a two-tier (memory LRU
// + content-addressed disk) result store; identical
// submissions — across clients and across server restarts when the disk
// tier persists — are answered from the store byte-identically without
// re-simulation.
//
// Usage:
//
//	pmcd serve  [-addr :8433] [-cache DIR] [-workers N] [-mem N] [-queue N] [-codeversion V]
//	pmcd submit [-addr URL] [-wait] [-out FILE] -sweep apps [-backends ...] [-tilelist ...] [-topos ...] [-small]
//	pmcd submit [-addr URL] [-wait] [-out FILE] -litmus PROG [-maxstates N]
//	pmcd submit [-addr URL] [-wait] [-out FILE] -fuzz -seed N -n N [-mode drf|racy|mixed] [-fuzzbackends ...] [-runs N]
//	pmcd submit [-addr URL] [-wait] [-out FILE] -spec FILE    raw JobSpec JSON ("-" = stdin)
//	pmcd get    [-addr URL] (-job ID | -fp FINGERPRINT) [-out FILE]
//	pmcd stats  [-addr URL]
//	pmcd gc     -cache DIR [-maxage 168h]
//
// gc ages out the content-addressed disk store in place (no server
// needed): bodies last written longer ago than -maxage are atomically
// deleted and a stats line is printed. Because keys commit to the full
// computation, purged results are never wrong to recompute — GC is
// purely a disk-capacity bound for long-lived caches.
//
// submit prints the job's terminal status line to stderr
// ("job j1 done cached=true ..."), and with -wait writes the result body
// to stdout or -out. Usage errors exit 2, runtime failures 1 (the shared
// pmc command convention).
//
// get -job answers only while the server still keeps the job: every
// queued and running job, and the newest 1024 finished ones. An older job
// ID is unknown (HTTP 404); its result stays reachable by the fingerprint
// submit printed, through get -fp, for as long as the store keeps it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pmc"
	"pmc/internal/cli"
)

const defaultAddr = "http://localhost:8433"

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "get":
		err = cmdGet(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "gc":
		err = cmdGC(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		err = cli.Usagef("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmcd:", err)
		var ue cli.UsageError
		if errors.As(err, &ue) {
			usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  pmcd serve  [-addr :8433] [-cache DIR] [-workers N] [-mem N] [-queue N] [-codeversion V]
  pmcd submit [-addr URL] [-wait] [-out FILE] -sweep apps | -litmus prog | -fuzz -seed N -n N | -spec FILE
  pmcd get    [-addr URL] (-job ID | -fp FP) [-out FILE]
  pmcd stats  [-addr URL]
  pmcd gc     -cache DIR [-maxage 168h]
`)
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("pmcd serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8433", "listen address")
		cacheDir    = fs.String("cache", "", "content-addressed disk store directory (empty = memory-only)")
		workers     = fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		mem         = fs.Int("mem", 0, "in-memory LRU capacity in results (0 = 128)")
		queue       = fs.Int("queue", 0, "job queue depth (0 = 256)")
		codeVersion = fs.String("codeversion", "", "override the fingerprint code-version component (default: VCS build stamp)")
	)
	fs.Parse(args)
	srv, err := pmc.NewPmcdServer(pmc.PmcdConfig{
		Workers: *workers, QueueDepth: *queue,
		CacheDir: *cacheDir, MemEntries: *mem, CodeVersion: *codeVersion,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "pmcd: serving on %s (code version %s, cache %q)\n",
		*addr, srv.CodeVersionUsed(), *cacheDir)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sig:
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func parseTiles(s string) ([]int, error) {
	var out []int
	for _, t := range splitList(s) {
		n, err := strconv.Atoi(t)
		if err != nil || n <= 0 {
			return nil, cli.Usagef("bad tile count %q in -tilelist", t)
		}
		out = append(out, n)
	}
	return out, nil
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("pmcd submit", flag.ExitOnError)
	var (
		addr = fs.String("addr", defaultAddr, "server base URL")
		wait = fs.Bool("wait", false, "follow the event stream and fetch the result")
		out  = fs.String("out", "", `write the result body to this file (default stdout; needs -wait)`)
		q    = fs.Bool("q", false, "suppress per-event progress lines")

		sweepApps = fs.String("sweep", "", "sweep job: comma-separated app list")
		backends  = fs.String("backends", "", "sweep: comma-separated backend list (default all)")
		tilelist  = fs.String("tilelist", "", "sweep: comma-separated tile counts")
		topos     = fs.String("topos", "", "sweep: comma-separated topologies (ring, mesh, cluster:<l>x<g>)")
		small     = fs.Bool("small", false, "sweep: CI-sized app configurations")

		litmusProg = fs.String("litmus", "", "litmus job: cataloged program name")
		maxStates  = fs.Int("maxstates", 0, "litmus: state budget override")

		fuzzJob  = fs.Bool("fuzz", false, "fuzz job: seeded differential campaign")
		seed     = fs.Int64("seed", 1, "fuzz: base seed")
		n        = fs.Int("n", 0, "fuzz: program count")
		mode     = fs.String("mode", "", "fuzz: generation mode (drf, racy, mixed)")
		fuzzBk   = fs.String("fuzzbackends", "", "fuzz: comma-separated backend list")
		runs     = fs.Int("runs", 0, "fuzz: perturbed runs per pair")
		specFile = fs.String("spec", "", `raw JobSpec JSON file ("-" = stdin)`)
	)
	fs.Parse(args)

	var spec pmc.PmcdJobSpec
	set := 0
	if *sweepApps != "" {
		tiles, err := parseTiles(*tilelist)
		if err != nil {
			return err
		}
		spec.Sweep = &pmc.PmcdSweepJob{
			Apps: splitList(*sweepApps), Backends: splitList(*backends),
			Tiles: tiles, Topos: splitList(*topos), Small: *small,
		}
		set++
	}
	if *litmusProg != "" {
		spec.Litmus = &pmc.PmcdLitmusJob{Prog: *litmusProg, MaxStates: *maxStates}
		set++
	}
	if *fuzzJob {
		spec.Fuzz = &pmc.PmcdFuzzJob{Seed: *seed, N: *n, Mode: *mode, Backends: splitList(*fuzzBk), Runs: *runs}
		set++
	}
	if *specFile != "" {
		if set > 0 {
			return cli.Usagef("-spec excludes the -sweep/-litmus/-fuzz convenience flags")
		}
		data, err := readFileOrStdin(*specFile)
		if err != nil {
			return err
		}
		if err := jsonUnmarshalStrict(data, &spec); err != nil {
			return cli.Usagef("bad job spec %s: %v", *specFile, err)
		}
		set++
	}
	if set != 1 {
		return cli.Usagef("submit needs exactly one of -sweep, -litmus, -fuzz, -spec")
	}
	if *out != "" && !*wait {
		return cli.Usagef("-out needs -wait")
	}

	ctx := context.Background()
	client := pmc.NewPmcdClient(*addr)
	st, err := client.Submit(ctx, spec)
	if err != nil {
		return err
	}
	if !*wait {
		fmt.Fprintf(os.Stderr, "job %s %s cached=%v fingerprint=%s\n", st.ID, st.State, st.Cached, st.Fingerprint)
		fmt.Println(st.ID)
		return nil
	}
	final := st
	if st.State != "done" && st.State != "failed" {
		final, err = client.Events(ctx, st.ID, func(ev pmc.PmcdJobStatus) {
			if !*q && ev.ProgressTotal > 0 {
				fmt.Fprintf(os.Stderr, "job %s %s %d/%d\n", ev.ID, ev.State, ev.ProgressDone, ev.ProgressTotal)
			}
		})
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "job %s %s cached=%v deduped=%v fingerprint=%s\n",
		final.ID, final.State, final.Cached, final.Deduped, final.Fingerprint)
	if final.State == "failed" {
		return fmt.Errorf("job %s failed: %s", final.ID, final.Error)
	}
	body, err := client.Result(ctx, final.ID, false)
	if err != nil {
		return err
	}
	return writeOut(*out, body)
}

func cmdGet(args []string) error {
	fs := flag.NewFlagSet("pmcd get", flag.ExitOnError)
	var (
		addr  = fs.String("addr", defaultAddr, "server base URL")
		jobID = fs.String("job", "", "job ID to fetch (the server keeps only its newest 1024 finished jobs; an older ID is unknown, fetch it by -fp)")
		fp    = fs.String("fp", "", "result fingerprint to fetch (content-addressed)")
		out   = fs.String("out", "", "write the result body to this file (default stdout)")
	)
	fs.Parse(args)
	if (*jobID == "") == (*fp == "") {
		return cli.Usagef("get needs exactly one of -job or -fp")
	}
	ctx := context.Background()
	client := pmc.NewPmcdClient(*addr)
	var body []byte
	var err error
	if *jobID != "" {
		body, err = client.Result(ctx, *jobID, true)
	} else {
		var ok bool
		body, ok, err = client.ResultByFingerprint(ctx, *fp)
		if err == nil && !ok {
			return fmt.Errorf("no stored result for fingerprint %s", *fp)
		}
	}
	if err != nil {
		return err
	}
	return writeOut(*out, body)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("pmcd stats", flag.ExitOnError)
	addr := fs.String("addr", defaultAddr, "server base URL")
	fs.Parse(args)
	st, err := pmc.NewPmcdClient(*addr).Stats(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("code version  %s\n", st.CodeVersion)
	fmt.Printf("jobs          %d submitted, %d done, %d failed\n", st.Submitted, st.Done, st.Failed)
	fmt.Printf("cache         %d cached, %d deduped, %d simulations\n", st.Cached, st.Deduped, st.Simulations)
	fmt.Printf("store         %d mem hits, %d disk hits, %d misses, %d entries in memory, %d corrupt files\n",
		st.Store.MemHits, st.Store.DiskHits, st.Store.Misses, st.Store.MemEntries, st.Store.Corrupt)
	fmt.Printf("pool          %d workers, %d queued, %d jobs in the table\n", st.Workers, st.QueueDepth, st.Jobs)
	return nil
}

// cmdGC ages out a disk store in place. It runs against the directory,
// not the server: the CI cache-restore step and a developer pruning
// ~/.cache have no server running, and a concurrently serving pmcd
// tolerates the deletes (content addressing makes them safe — at worst
// a just-purged body is recomputed).
func cmdGC(args []string) error {
	fs := flag.NewFlagSet("pmcd gc", flag.ExitOnError)
	var (
		cacheDir = fs.String("cache", "", "content-addressed disk store directory")
		maxAge   = fs.Duration("maxage", 7*24*time.Hour, "purge results last written longer ago than this")
	)
	fs.Parse(args)
	if *cacheDir == "" {
		return cli.Usagef("gc needs -cache DIR")
	}
	if *maxAge <= 0 {
		return cli.Usagef("bad -maxage %v: must be positive", *maxAge)
	}
	store, err := pmc.OpenPmcdStore(*cacheDir, 0)
	if err != nil {
		return err
	}
	st, err := store.GC(*maxAge)
	if err != nil {
		return err
	}
	fmt.Printf("gc %s: %s (maxage %v)\n", *cacheDir, st, *maxAge)
	return nil
}

func readFileOrStdin(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func writeOut(path string, body []byte) error {
	if path == "" {
		_, err := os.Stdout.Write(body)
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// jsonUnmarshalStrict decodes with unknown fields rejected, mirroring the
// server's own decoder so a typoed spec fails client-side too.
func jsonUnmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
