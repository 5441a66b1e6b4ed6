// Command horamd serves an H-ORAM block store over TCP — the paper's
// Figure 2-3 / 5-2 deployment: the ORAM, its storage backend and the
// shuffle all live on the server, so shuffle traffic never crosses the
// (slow) network, while clients see a plain block API.
//
// The daemon is built on internal/server and internal/engine:
// concurrent connections are accepted without a global lock, requests
// arriving while a shard's scheduler is busy share its next drain, and
// the engine PRF-shards the address space across -shards independent
// H-ORAM instances whose schedulers cycle concurrently — multi-client
// traffic gets the paper's §4.2 request-grouping per shard AND
// core-level parallelism across shards.
//
//	horamd -addr :7312 -blocks 65536 -mem 8388608 -shards 4
//
// With -data-dir the store is durable: each shard's storage tier is a
// preallocated file under the directory, control state is checkpointed
// there (-checkpoint interval, plus a final save on SIGINT/SIGTERM),
// and a restart with the same flags and key resumes serving every
// previously written block. A missing or empty data directory starts
// fresh; an existing snapshot is loaded on start.
//
//	horamd -addr :7312 -blocks 65536 -mem 8388608 -shards 4 \
//	       -data-dir /var/lib/horamd -checkpoint 1m -fsync 0
//
// Protocol (text, one request per line; see internal/server):
//
//	READ <addr>\n                -> OK <hex>\n | ERR <msg>\n
//	WRITE <addr> <hex>\n         -> OK\n       | ERR <msg>\n
//	MULTI <n>\n + n lines        -> OK <n>\n + n lines | ERR <msg>\n
//	STATS\n                      -> OK requests=<n> ... shards=<s> s0_depth=<n> s0_cycles=<n> ...\n
//	QUIT\n                       -> closes the connection
//
// With -kv the daemon serves the oblivious key–value layer
// (internal/okv) instead of raw block writes: KGET/KSET/KDEL run a
// fixed-shape block pipeline over the engine, so hit, miss, insert,
// update and delete are indistinguishable on the device bus; raw
// WRITE is refused (the block space backs the table). The table and
// its directory state ride the ordinary snapshot/restore protocol:
//
//	horamd -addr :7312 -blocks 65536 -mem 8388608 -shards 4 -kv \
//	       -kv-max-value 4096 -data-dir /var/lib/horamd
//
// # Observability
//
// -metrics-addr serves the leak-audited Prometheus exposition
// (internal/obs) over HTTP at /metrics; -pprof-addr serves
// net/http/pprof. Both ride the same mux, so giving both flags the
// same address shares one listener. Logs are structured (log/slog);
// -log-format selects text or json. The TRACE verb (see
// internal/server) dumps per-batch spans as chrome://tracing JSON.
//
// # Cluster mode
//
// The shard count can also be spread across processes (and machines):
// each shard runs in its own horamd started with -shard-serve, and one
// horamd started with -gateway scatter/gathers over them through
// internal/cluster. Every process — gateway and nodes — is launched
// with the SAME global geometry flags; a -shard-serve node derives its
// own slice (engine.ShardConfig) from them plus -shard-index, and the
// gateway refuses any node whose PEEK manifest echo has drifted from
// that derivation. The volume-leveling invariant stays global: the
// gateway levels cycle counts over the wire (CYCLES/PAD), so a
// quiescent cluster shows equal per-node cycle counts exactly as a
// single process does. A gateway's /metrics additionally aggregates
// every node's exposition (METRICS verb) relabelled with node="i".
//
//	horamd -shard-serve -shard-index 0 -addr :7401 -blocks 65536 -mem 8388608 -shards 2
//	horamd -shard-serve -shard-index 1 -addr :7402 -blocks 65536 -mem 8388608 -shards 2
//	horamd -gateway -nodes 127.0.0.1:7401,127.0.0.1:7402 -addr :7312 \
//	       -blocks 65536 -mem 8388608 -shards 2
//
// A shard node may take -data-dir (ITS durability is its own concern);
// the gateway must not — and the gateway does not migrate shards or
// fail over: a dead node surfaces as per-task ERRs on the requests
// that touch it. See README "Cluster mode".
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof-addr handlers on DefaultServeMux
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/okv"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7312", "listen address")
	blocks := flag.Int64("blocks", 65536, "data set size in blocks")
	blockSize := flag.Int("blocksize", 1024, "block size in bytes")
	mem := flag.Int64("mem", 8<<20, "total memory-tier budget in bytes (split across shards)")
	shards := flag.Int("shards", 1, "H-ORAM shard count (parallel per-shard schedulers)")
	keyHex := flag.String("key", strings.Repeat("2a", 32), "hex master key (32 bytes)")
	maxBatch := flag.Int("max-batch", server.DefaultMaxBatch, "max logical requests one command submits to the engine at once (a larger MULTI runs in chunks)")
	maxConns := flag.Int("max-conns", server.DefaultMaxConns, "max concurrent connections")
	dataDir := flag.String("data-dir", "", "durable storage directory (empty = in-memory simulation, nothing survives restart)")
	checkpoint := flag.Duration("checkpoint", time.Minute, "periodic control-state checkpoint interval with -data-dir (0 disables; a final checkpoint always runs on shutdown)")
	fsync := flag.Int("fsync", 0, "storage fsync policy with -data-dir: 0 = at shuffle/checkpoint boundaries only, 1 = every write, n = every n-th write")
	constantTime := flag.Bool("constant-time", false, "harden the block layer's trusted-memory data structures (stash, leaf tables) against co-located timing adversaries: full fixed-order scans, no secret-dependent branches; device traffic is unchanged, CPU cost rises")
	kv := flag.Bool("kv", false, "serve the oblivious key-value layer (KGET/KSET/KDEL; raw WRITE is disabled — the block space backs the table)")
	kvMaxValue := flag.Int("kv-max-value", 4096, "KV value-length cap in bytes; fixes the per-op extent fan-out at ceil(cap/blocksize)")
	kvSlots := flag.Int("kv-slots", okv.DefaultSlotsPerBucket, "KV slots per hash bucket (two-choice hashing)")
	statsEvery := flag.Duration("stats-every", time.Minute, "periodic serving-stats log interval (0 disables)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve the leak-audited Prometheus exposition at /metrics on this address (may equal -pprof-addr to share one listener; empty disables)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	shardServe := flag.Bool("shard-serve", false, "serve ONE shard of a cluster: derive this process's geometry from the global flags plus -shard-index and enable the shard-control verbs (CYCLES/PAD/CHECKPT/PEEK/METRICS) for a gateway")
	shardIndex := flag.Int("shard-index", 0, "which shard of the -shards-wide placement this -shard-serve process is")
	gateway := flag.Bool("gateway", false, "serve as the cluster gateway: scatter/gather over the -nodes shard processes instead of running shards in-process")
	nodes := flag.String("nodes", "", "comma-separated shard node addresses for -gateway, placement order = shard order")
	dialAttempts := flag.Int("dial-attempts", 20, "gateway startup: dial/probe attempts per node before giving up (with doubling backoff)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "horamd: bad -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// Flags the operator actually set, so mode-specific defaults only
	// fill the gaps.
	setFlags := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	key, err := hex.DecodeString(*keyHex)
	if err != nil {
		fatal("bad -key", "err", err)
	}
	opts := engine.Options{
		Blocks:       *blocks,
		BlockSize:    *blockSize,
		MemoryBytes:  *mem,
		Key:          key,
		Shards:       *shards,
		ConstantTime: *constantTime,
		DataDir:      *dataDir,
		FsyncEvery:   *fsync,
	}

	if *shardServe && *gateway {
		fatal("-shard-serve and -gateway are exclusive; a process is a shard node or the front end, not both")
	}
	if *shardServe {
		if *kv {
			fatal("-kv on a shard node: the key-value layer spans the WHOLE block space, so it belongs on the gateway (or a standalone daemon), not on one shard's slice")
		}
		// The node's slice of the global geometry: ShardConfig derives
		// blocks/memory/key material from the same flags the gateway
		// runs with, then the node-local durability knobs come back
		// from this process's own flags.
		shardOpts, err := engine.ShardConfig(opts, *shardIndex)
		if err != nil {
			fatal("shard config", "err", err)
		}
		shardOpts.DataDir = *dataDir
		shardOpts.FsyncEvery = *fsync
		opts = shardOpts
	}

	var eng *engine.Engine
	restored := false
	if *gateway {
		if *dataDir != "" {
			fatal("-gateway with -data-dir: shard nodes own their durability; give -data-dir to the -shard-serve processes instead")
		}
		placement, err := cluster.ParsePlacement(*nodes)
		if err != nil {
			fatal("bad -nodes", "err", err)
		}
		if !setFlags["shards"] {
			opts.Shards = len(placement.Nodes)
		}
		eng, err = cluster.Connect(opts, placement, client.DialConfig{Attempts: *dialAttempts})
		if err != nil {
			fatal("cluster connect", "err", err)
		}
		logger.Info("gateway assembled", "nodes", len(placement.Nodes), "placement", *nodes)
	} else {
		// Load-on-start: an existing manifest means a previous instance
		// checkpointed here — resume it. Anything else starts fresh.
		if *dataDir != "" {
			if _, statErr := os.Stat(filepath.Join(*dataDir, engine.ManifestFileName)); statErr == nil {
				eng, err = engine.Restore(opts)
				if err != nil {
					fatal("restore failed (a fresh start needs an empty -data-dir)", "data_dir", *dataDir, "err", err)
				}
				logger.Info("restored durable store", "data_dir", *dataDir, "epoch", eng.Epoch())
			}
		}
		restored = eng != nil
		if eng == nil {
			eng, err = engine.New(opts)
			if err != nil {
				fatal("engine", "err", err)
			}
			if *dataDir != "" {
				logger.Info("initialised fresh durable store", "data_dir", *dataDir)
			}
		}
	}

	// Observability: every mode gets a registry (STATS renders it
	// whole, Trusted series included) and a tracer (armed by the TRACE
	// verb); -metrics-addr decides whether the exposition is reachable
	// over HTTP.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.DefaultTraceSpans)
	eng.Observe(reg, tracer)
	var metricsHandler http.Handler = reg
	if *gateway {
		cluster.Observe(reg, eng)
		metricsHandler = cluster.MetricsHandler(reg, eng)
	}

	// The KV layer lays its table over the engine's whole block space;
	// a restored image resumes the persisted directory state (refusing
	// geometry drift), a fresh engine starts an empty table.
	var store *okv.Store
	if *kv {
		// A value this large could never arrive: KSET frames the value
		// in hex (2 line bytes per value byte) and the server caps one
		// protocol line, so an at-cap KSET must fit under that ceiling
		// or every client legitimately using the cap would tear its
		// connection mid-stream.
		if lineNeed := len("KSET ") + 2*(*blockSize) + 1 + 2*(*kvMaxValue); lineNeed > server.MaxLineBytes {
			fatal("-kv-max-value cannot be served: an at-cap KSET line exceeds the protocol line limit",
				"kv_max_value", *kvMaxValue, "line_need", lineNeed, "line_limit", server.MaxLineBytes,
				"max_usable", (server.MaxLineBytes-len("KSET ")-2*(*blockSize)-1)/2)
		}
		kvOpts := okv.Options{
			Backend:        eng,
			SlotsPerBucket: *kvSlots,
			MaxValueBytes:  *kvMaxValue,
			Key:            key,
		}
		if restored {
			store, err = okv.Resume(kvOpts, eng.RestoredKVState())
		} else {
			store, err = okv.New(kvOpts)
		}
		if err != nil {
			fatal("kv layer", "err", err)
		}
		logger.Info("kv layer ready",
			"buckets", store.Buckets(), "slots", store.SlotsPerBucket(),
			"capacity", store.Capacity(), "value_cap", store.MaxValueBytes(),
			"live_keys", store.Len())
	} else if restored && eng.RestoredKVState() != nil {
		logger.Warn("restored image carries a KV table but -kv is off; raw WRITE traffic will corrupt it")
	}

	// checkpoint saves the engine image — through the KV layer's
	// operation lock when it is enabled, so the persisted directory
	// state never straddles a half-finished KV op.
	checkpointNow := func() error {
		if store != nil {
			return store.Checkpoint(eng.SaveSnapshotKV)
		}
		return eng.SaveSnapshot()
	}

	if store != nil && *gateway {
		logger.Warn("gateway KV directory state is not durable (the gateway has no -data-dir); nodes persist blocks, but a gateway restart starts an empty table")
	}

	// /metrics rides DefaultServeMux alongside the pprof blank-import
	// handlers, so equal -pprof-addr/-metrics-addr share one listener
	// and distinct addresses each serve the full debug surface.
	if *metricsAddr != "" {
		http.Handle("/metrics", metricsHandler)
	}
	httpAddrs := []string{}
	for _, a := range []string{*pprofAddr, *metricsAddr} {
		if a == "" || (len(httpAddrs) > 0 && httpAddrs[0] == a) {
			continue
		}
		httpAddrs = append(httpAddrs, a)
	}
	for _, a := range httpAddrs {
		a := a
		go func() {
			logger.Info("debug http listener", "addr", a, "pprof", *pprofAddr != "", "metrics", *metricsAddr != "")
			if err := http.ListenAndServe(a, nil); err != nil {
				logger.Warn("debug http listener failed", "addr", a, "err", err)
			}
		}()
	}

	srv, err := server.New(server.Config{
		Engine:       eng,
		MaxBatch:     *maxBatch,
		MaxConns:     *maxConns,
		KV:           store,
		ShardControl: *shardServe,
		Metrics:      reg,
		Tracer:       tracer,
		Logger:       logger,
	})
	if err != nil {
		fatal("server", "err", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", "addr", *addr, "err", err)
	}
	mode := "block store"
	if store != nil {
		mode = "kv store"
	}
	switch {
	case *shardServe:
		mode = fmt.Sprintf("shard node %d/%d", *shardIndex, *shards)
	case *gateway:
		mode = "gateway " + mode
	}
	logger.Info("serving",
		"addr", ln.Addr().String(), "mode", mode,
		"blocks", opts.Blocks, "blocksize", *blockSize,
		"shards", eng.Shards(),
		"max_batch", *maxBatch, "max_conns", *maxConns)

	// Periodic checkpoints keep the recoverable image fresh; a hard
	// crash loses at most one interval of writes.
	ckptStop := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		if *dataDir == "" || *checkpoint <= 0 {
			return
		}
		ticker := time.NewTicker(*checkpoint)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				start := time.Now()
				if err := checkpointNow(); err != nil {
					logger.Error("checkpoint failed", "err", err)
				} else {
					logger.Info("checkpoint saved", "elapsed", time.Since(start).Round(time.Millisecond))
				}
			case <-ckptStop:
				return
			}
		}
	}()

	// Periodic serving-stats log: the observable heartbeat operators
	// watch — one record with stable keys, machine-greppable in either
	// -log-format. KV verbs are not block commands, so in KV mode the
	// kv_* counters are the real traffic and the window counters would
	// read as an idle daemon.
	statsStop := make(chan struct{})
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		if *statsEvery <= 0 {
			return
		}
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				st := srv.Stats()
				if st.KV != nil {
					logger.Info("stats",
						"kv_ops", st.KV.Gets+st.KV.Sets+st.KV.Dels,
						"kv_count", st.KV.Count,
						"kv_gets", st.KV.Gets, "kv_sets", st.KV.Sets,
						"kv_dels", st.KV.Dels, "kv_misses", st.KV.Misses,
						"block_requests", st.Requests,
						"conns", st.Accepted, "active", st.Active)
				} else {
					logger.Info("stats",
						"requests", st.Requests,
						"conns", st.Accepted, "active", st.Active,
						"batches", st.Batches, "mean_batch", st.MeanBatch)
				}
			case <-statsStop:
				return
			}
		}
	}()

	// SIGINT/SIGTERM drain in-flight requests before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Info("shutting down", "signal", s.String())
		if err := srv.Close(); err != nil {
			logger.Error("server close", "err", err)
		}
	}()

	if err := srv.Serve(ln); err != nil {
		fatal("serve", "err", err)
	}
	close(ckptStop)
	<-ckptDone
	close(statsStop)
	<-statsDone

	// Save-on-shutdown: the server is closed (no traffic), so this
	// snapshot captures the final state and a restart loses nothing.
	if *dataDir != "" {
		if err := checkpointNow(); err != nil {
			logger.Error("final checkpoint failed", "err", err)
		} else {
			logger.Info("final checkpoint saved", "data_dir", *dataDir)
		}
	}

	st := srv.Stats()
	sum := eng.Stats()
	if st.KV != nil {
		logger.Info("served",
			"kv_ops", st.KV.Gets+st.KV.Sets+st.KV.Dels,
			"kv_gets", st.KV.Gets, "kv_sets", st.KV.Sets,
			"kv_dels", st.KV.Dels, "kv_misses", st.KV.Misses,
			"kv_count", st.KV.Count, "kv_capacity", st.KV.Capacity,
			"block_requests", st.Requests, "conns", st.Accepted)
	} else {
		logger.Info("served",
			"requests", st.Requests, "conns", st.Accepted,
			"windows", st.Batches, "mean_window", st.MeanBatch,
			"hist", srv.HistogramString())
	}
	logger.Info("engine summary",
		"shards", sum.Shards, "hits", sum.Hits, "misses", sum.Misses,
		"shuffles", sum.Shuffles, "cycles", sum.Cycles, "padded", sum.Padded,
		"simtime", sum.SimTime.Round(time.Millisecond))
	for _, sh := range eng.ShardStats() {
		logger.Info("shard summary",
			"shard", sh.Shard, "blocks", sh.Blocks,
			"drains", sh.Batches, "reqs", sh.Requests, "mean", sh.MeanBatch,
			"hist", eng.DrainSizes(sh.Shard).BucketString(),
			"cycles", sh.Cycles, "pad", sh.PadCycles, "shuffles", sh.Shuffles)
	}
	if err := eng.Close(); err != nil {
		logger.Error("engine close", "err", err)
	}
}
