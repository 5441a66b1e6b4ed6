// Package server is the concurrent network front-end for an H-ORAM
// block store — the serving half of the paper's Figure 2-3 / 5-2
// deployment, built so heavy multi-client traffic actually feeds the
// scheduler's request-grouping machinery (§4.2) instead of trickling
// in one request at a time.
//
// Architecture: each TCP connection gets one goroutine that parses a
// command and runs it through engine.Engine.Batch itself, in chunks of
// at most MaxBatch requests (a "window" in the metrics is one such
// chunk). The server groups nothing and never waits for company: a
// shard's queue in the engine — the one place requests from different
// connections merge — drains at once when idle and otherwise takes
// whatever accumulated while its previous drain ran (one storage load
// amortised across up to c in-memory hits per cycle, as the paper's
// schedule intends). Every client stays asynchronous with respect to
// the others.
//
// Wire protocol (text, line-oriented; responses in request order):
//
//	READ <addr>                  -> OK <hex> | ERR <msg>
//	WRITE <addr> <hex>           -> OK       | ERR <msg>
//	MULTI <n>                    -> OK <n> then n lines  | ERR <msg>
//	  followed by n lines, each READ <addr> or WRITE <addr> <hex>;
//	  the n sub-requests run as one scheduler batch and the n
//	  response lines mirror the single-request responses.
//	STATS                        -> OK series=value ... (every series of the
//	  obs registry, Trusted ones included, as /metrics names them)
//	TRACE ON|OFF|STATUS|DUMP     -> OK ... (request-path tracer control;
//	  DUMP answers OK <hex> where <hex> decodes to chrome://tracing JSON)
//	QUIT                         -> closes the connection
//
// STATS and TRACE are TRUSTED operator surfaces: the STATS line
// reports secret-dependent counters (per-shard request routing,
// hit/miss mix, the real-vs-pad cycle split — the obs.Trusted series)
// and trace spans carry wall-clock timings. The adversary-visible
// monitoring surface is the separate leak-audited /metrics exposition
// (internal/obs, exported by horamd -metrics-addr), which exports
// none of those.
//
// With Config.KV set (horamd -kv) the oblivious key–value verbs are
// served as well — each runs internal/okv's fixed three-batch block
// pipeline through the engine's reorder buffers, so hit, miss, insert,
// update and delete are bus-indistinguishable:
//
//	KGET <hexkey>                -> OK <hex> | OK (empty value) | MISS | ERR <msg>
//	KSET <hexkey> [<hexvalue>]   -> OK | ERR <msg>   (omitted value = empty)
//	KDEL <hexkey>                -> OK 1 (existed) | OK 0 (absent) | ERR <msg>
//
// In KV mode raw WRITE is refused: the whole block address space backs
// the table, and a raw write landing inside it would corrupt the
// layout. Raw READ stays available for diagnostics.
//
// With Config.ShardControl set (horamd -shard-serve) the shard-control
// verbs are served as well — the wire half of the cluster control
// plane a gateway engine (engine.NewWithBackends over
// internal/cluster's remote shards) drives:
//
//	CYCLES                       -> OK <n> | ERR <msg>   (cumulative scheduler cycles)
//	PAD <target>                 -> OK <padded> | ERR <msg>  (dummy cycles up to target)
//	CHECKPT <n>                  -> OK | ERR <msg>   (checkpoint at explicit lifetime number)
//	PEEK                         -> OK k=v ... | ERR <msg>   (manifest echo + checkpoint)
//	METRICS                      -> OK <hex> | ERR <msg>   (node /metrics text, hex-encoded —
//	  how a gateway aggregates a cluster-wide scrape)
//
// CYCLES/PAD are how cross-node cycle leveling reaches over process
// boundaries; PEEK is how a gateway refuses a node running drifted
// geometry/options/seed before serving traffic through it. The verbs
// are refused unless explicitly enabled: PAD and CHECKPT let any
// client burn I/O budget and write snapshots, which a public-facing
// front end must not expose.
package server

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/okv"
)

// Defaults for Config zero values.
const (
	DefaultMaxBatch = 64
	DefaultMaxConns = 256

	// MaxMultiRequests bounds the <n> of one MULTI command.
	MaxMultiRequests = 1024

	// MaxLineBytes bounds one protocol line. WRITE and KSET lines carry
	// hex payloads (two line bytes per payload byte), so this bounds
	// the block size at ~512 KiB and is the ceiling horamd validates
	// -kv-max-value against: a value cap whose at-cap KSET line could
	// not fit would tear every connection that legitimately used it.
	MaxLineBytes = 1 << 20
)

// ErrClosed is returned by Serve after Close.
var ErrClosed = errors.New("server: closed")

// Config parameterises a Server. Zero values select the defaults
// above.
type Config struct {
	// Engine is the sharded H-ORAM engine every request is served
	// from. Required. The server is its only driver on the hot path,
	// so each shard's scheduler still observes one serial request
	// stream as the secure scheduler requires.
	Engine *engine.Engine
	// MaxBatch caps the logical requests of one command submitted to
	// the engine at once; a larger MULTI runs as several batches.
	MaxBatch int
	// MaxConns caps concurrently served connections; excess
	// connections are refused with "ERR server busy".
	MaxConns int
	// KV enables the oblivious key–value verbs (KGET/KSET/KDEL),
	// served from this store. The store must be laid over the same
	// engine; while it is set, raw WRITE is refused so block traffic
	// cannot corrupt the table layout. Nil serves the block protocol
	// only.
	KV *okv.Store
	// ShardControl enables the CYCLES/PAD/CHECKPT/PEEK/METRICS verbs —
	// the wire half of the cluster control plane. Only a horamd
	// running as a -shard-serve node should set it: PAD and CHECKPT
	// are state-changing operations a public front end must not
	// expose, and METRICS hands out the node's whole exposition.
	ShardControl bool
	// Metrics is the registry the server registers its serving
	// counters on (see internal/obs for the leak-audit contract); the
	// STATS verb renders this registry whole. A caller that sets it
	// has already observed Engine on it (Engine.Observe). Nil makes
	// the server observe Engine on a private registry and register
	// there, so STATS works without an exported /metrics surface.
	Metrics *obs.Registry
	// Tracer, when set, enables the TRACE control verb and tags the
	// per-chunk "window" spans. Wire the same tracer into the engine
	// (Engine.Observe) to see the full request path in one dump. The
	// dump is a trusted diagnostic like STATS — wall-clock spans are
	// not a public observable.
	Tracer *obs.Tracer
	// Logger receives connection-level diagnostics; nil discards them.
	Logger *slog.Logger
}

// Server accepts connections and runs their requests through the
// shared engine.
type Server struct {
	cfg       Config
	engine    *engine.Engine
	kv        *okv.Store
	blocks    int64
	blockSize int

	quit chan struct{}
	wg   sync.WaitGroup

	// drain executes one chunk of a command; engine.Batch in
	// production, overridable by fault-injection tests.
	drain func(reqs []*core.Request) error

	// reg backs the STATS verb and (on a -shard-serve node) the
	// METRICS verb; ins are the registered serving counters. tracer is
	// nil unless Config.Tracer wired one.
	reg    *obs.Registry
	ins    instruments
	tracer *obs.Tracer
	logger *slog.Logger

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	// statsMu serialises STATS renders over the reused scratch below;
	// the serving path never takes it.
	statsMu  sync.Mutex
	statsBuf []byte
}

// New validates the config.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	reg := cfg.Metrics
	if reg == nil {
		// A private registry keeps the STATS verb registry-backed even
		// when nothing exports /metrics; the engine's series, Trusted
		// ones included, are registered on it here.
		reg = obs.NewRegistry()
		cfg.Engine.Observe(reg, cfg.Tracer)
	}
	s := &Server{
		cfg:       cfg,
		engine:    cfg.Engine,
		kv:        cfg.KV,
		blocks:    cfg.Engine.Blocks(),
		blockSize: cfg.Engine.BlockSize(),
		quit:      make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
		reg:       reg,
		tracer:    cfg.Tracer,
		logger:    cfg.Logger,
	}
	s.ins = newInstruments(reg, cfg.KV)
	s.drain = cfg.Engine.Batch
	return s, nil
}

// Serve accepts connections on ln until Close. It returns nil after a
// clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close() //horam:errok refusing a listener handed to a closed server; ErrClosed is the answer
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
			}
			// Ride out transient accept failures (fd exhaustion under
			// a connection flood) instead of killing every healthy
			// connection with the daemon.
			if ne, ok := err.(net.Error); ok && ne.Temporary() { //nolint:staticcheck // matches net/http's accept-retry pattern
				s.logger.Warn("accept failed, retrying", "err", err)
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return err
		}
		if !s.admit(conn) {
			continue
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// admit registers the connection or refuses it over the MaxConns cap.
func (s *Server) admit(conn net.Conn) bool {
	s.mu.Lock()
	if s.closed || len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.ins.rejected.Inc()
		fmt.Fprintln(conn, "ERR server busy")
		conn.Close() //horam:errok best-effort refusal of a connection over the cap
		return false
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.ins.accepted.Inc()
	s.ins.active.Add(1)
	return true
}

func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.ins.active.Add(-1)
}

// Close stops accepting and lets in-flight requests complete and
// their responses flush. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	close(s.quit)
	var lnErr error
	if ln != nil {
		lnErr = ln.Close()
	}
	// Unblock connection readers while keeping the write side open so
	// in-flight responses still reach the client.
	for _, c := range conns {
		if cr, ok := c.(interface{ CloseRead() error }); ok {
			cr.CloseRead()
		} else {
			c.SetReadDeadline(time.Now())
		}
	}
	s.wg.Wait()
	return lnErr
}

// dispatch runs one command's requests through the engine on the
// calling connection's goroutine, in MaxBatch-sized chunks, so
// -max-batch bounds what one command puts into the shared schedulers
// at once. Every chunk is attempted regardless of earlier failures
// (the engine's batches are independent), and the command fails iff
// one of ITS chunks did.
func (s *Server) dispatch(reqs []*core.Request) error {
	var firstErr error
	for off := 0; off < len(reqs); off += s.cfg.MaxBatch {
		end := min(off+s.cfg.MaxBatch, len(reqs))
		start := time.Now()
		sp := s.tracer.Begin("window", 0)
		err := s.drain(reqs[off:end])
		sp.End(obs.Arg{Key: "size", Val: int64(end - off)})
		s.ins.drainTime.ObserveDuration(time.Since(start))
		// Count only successful chunks, mirroring the engine's
		// per-shard drain accounting (which skips failed drains) — so
		// the per-shard request sums always reconcile with the window
		// totals, even after faults.
		if err == nil {
			s.record(end - off)
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// handle serves one connection: parse, dispatch, respond. Responses
// for a connection are written in request order; grouping across
// connections happens in the engine's per-shard queues.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close() //horam:errok per-connection teardown; the protocol has already answered or failed
	defer s.forget(conn)

	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLineBytes)
	w := bufio.NewWriter(conn)
scan:
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch strings.ToUpper(fields[0]) {
		case "QUIT":
			return
		case "STATS":
			s.writeStats(w)
		case "TRACE":
			s.handleTrace(w, fields)
		case "READ", "WRITE":
			req, msg := s.parseOp(fields)
			if msg != "" {
				fmt.Fprintln(w, "ERR "+msg)
				break
			}
			if err := s.dispatch([]*core.Request{req}); err != nil {
				fmt.Fprintln(w, "ERR "+err.Error())
				break
			}
			writeOpResponse(w, req)
		case "KGET", "KSET", "KDEL":
			s.handleKV(w, fields)
		case "CYCLES", "PAD", "CHECKPT", "PEEK", "METRICS":
			s.handleShardControl(w, fields)
		case "MULTI":
			if !s.handleMulti(sc, w, fields) {
				// Framing is no longer trustworthy (bad count, or
				// the stream died mid-command): stop parsing and
				// close after surfacing sc.Err below.
				break scan
			}
		default:
			fmt.Fprintln(w, "ERR unknown command "+fields[0])
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
	// A failed scan (oversized line, transport error) used to drop
	// the connection silently; surface it to the client when the
	// write side is still usable.
	if err := sc.Err(); err != nil {
		s.logger.Warn("connection scan failed", "remote", conn.RemoteAddr().String(), "err", err)
		fmt.Fprintf(w, "ERR %v\n", err)
	}
	w.Flush()
}

// handleMulti reads the n sub-request lines of a MULTI command,
// dispatches them as one command and writes the n+1 response lines. On a
// sub-line validation error it still consumes the full declared frame
// (keeping the stream in sync — leftover lines must never execute as
// top-level commands), answers one ERR and lets the connection
// continue. It returns false when framing is lost: an unusable count
// (the n sub-lines can't be safely consumed) or a scan failure
// mid-command; handle then surfaces sc.Err and closes.
func (s *Server) handleMulti(sc *bufio.Scanner, w *bufio.Writer, fields []string) bool {
	if len(fields) != 2 {
		fmt.Fprintln(w, "ERR usage: MULTI <n>")
		return true
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 1 || n > MaxMultiRequests {
		fmt.Fprintf(w, "ERR MULTI count must be in [1,%d]\n", MaxMultiRequests)
		return false
	}
	reqs := make([]*core.Request, 0, n)
	badLine := ""
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			return false
		}
		if badLine != "" {
			continue // drain the rest of the frame
		}
		sub := strings.Fields(strings.TrimSpace(sc.Text()))
		op := ""
		if len(sub) > 0 {
			op = strings.ToUpper(sub[0])
		}
		if op != "READ" && op != "WRITE" {
			badLine = fmt.Sprintf("MULTI line %d: only READ/WRITE allowed", i+1)
			continue
		}
		req, msg := s.parseOp(sub)
		if msg != "" {
			badLine = fmt.Sprintf("MULTI line %d: %s", i+1, msg)
			continue
		}
		reqs = append(reqs, req)
	}
	if badLine != "" {
		fmt.Fprintln(w, "ERR "+badLine)
		return true
	}
	if err := s.dispatch(reqs); err != nil {
		fmt.Fprintln(w, "ERR "+err.Error())
		return true
	}
	fmt.Fprintf(w, "OK %d\n", n)
	for _, req := range reqs {
		writeOpResponse(w, req)
	}
	return true
}

// handleKV serves one KGET/KSET/KDEL command. Each is a fixed-size
// batch pipeline the okv layer drives through the engine from this
// connection's goroutine. okv locks per bucket, so concurrent
// connections' operations on disjoint keys run their pipelines
// concurrently and their batches coalesce in the shards' queues.
func (s *Server) handleKV(w *bufio.Writer, fields []string) {
	verb := strings.ToUpper(fields[0])
	if s.kv == nil {
		fmt.Fprintln(w, "ERR kv disabled (start horamd with -kv)")
		return
	}
	usage, wantMax := "usage: KGET <hexkey>", 2
	switch verb {
	case "KSET":
		usage, wantMax = "usage: KSET <hexkey> [<hexvalue>]", 3
	case "KDEL":
		usage = "usage: KDEL <hexkey>"
	}
	if len(fields) < 2 || len(fields) > wantMax {
		fmt.Fprintln(w, "ERR "+usage)
		return
	}
	key, err := hex.DecodeString(fields[1])
	if err != nil {
		fmt.Fprintln(w, "ERR bad hex key")
		return
	}
	var obsStart time.Time
	if s.ins.kvTime != nil {
		obsStart = time.Now()
	}
	sp := s.tracer.Begin("kv-"+strings.ToLower(verb), 0)
	defer func() {
		sp.End()
		if s.ins.kvTime != nil {
			s.ins.kvTime.ObserveDuration(time.Since(obsStart))
		}
	}()
	switch verb {
	case "KGET":
		s.ins.kvGets.Inc()
		val, ok, err := s.kv.Get(key)
		switch {
		case err != nil:
			fmt.Fprintln(w, "ERR "+err.Error())
		case !ok:
			fmt.Fprintln(w, "MISS")
		case len(val) == 0:
			fmt.Fprintln(w, "OK")
		default:
			fmt.Fprintln(w, "OK "+hex.EncodeToString(val))
		}
	case "KSET":
		s.ins.kvSets.Inc()
		var val []byte
		if len(fields) == 3 {
			if val, err = hex.DecodeString(fields[2]); err != nil {
				fmt.Fprintln(w, "ERR bad hex value")
				return
			}
		}
		if err := s.kv.Set(key, val); err != nil {
			fmt.Fprintln(w, "ERR "+err.Error())
			return
		}
		fmt.Fprintln(w, "OK")
	case "KDEL":
		s.ins.kvDels.Inc()
		existed, err := s.kv.Del(key)
		if err != nil {
			fmt.Fprintln(w, "ERR "+err.Error())
			return
		}
		if existed {
			fmt.Fprintln(w, "OK 1")
		} else {
			fmt.Fprintln(w, "OK 0")
		}
	}
}

// parseOp parses a READ/WRITE command (already split into fields) and
// validates it against the store geometry, so a malformed request is
// refused before it can poison a shared batch.
func (s *Server) parseOp(fields []string) (*core.Request, string) {
	op := strings.ToUpper(fields[0])
	wantArgs := 2
	if op == "WRITE" {
		wantArgs = 3
		if s.kv != nil {
			return nil, "WRITE disabled in KV mode (the block space backs the key-value table)"
		}
	}
	if len(fields) != wantArgs {
		if op == "WRITE" {
			return nil, "usage: WRITE <addr> <hex>"
		}
		return nil, "usage: READ <addr>"
	}
	addr, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, "bad address"
	}
	if addr < 0 || addr >= s.blocks {
		return nil, fmt.Sprintf("address %d out of range [0,%d)", addr, s.blocks)
	}
	if op == "READ" {
		return &core.Request{Op: core.OpRead, Addr: addr}, ""
	}
	data, err := hex.DecodeString(fields[2])
	if err != nil {
		return nil, "bad hex payload"
	}
	if len(data) != s.blockSize {
		return nil, fmt.Sprintf("payload %d bytes, want %d", len(data), s.blockSize)
	}
	return &core.Request{Op: core.OpWrite, Addr: addr, Data: data}, ""
}

// writeOpResponse emits the per-request success line.
func writeOpResponse(w *bufio.Writer, req *core.Request) {
	if req.Op == core.OpRead {
		fmt.Fprintln(w, "OK "+hex.EncodeToString(req.Result))
	} else {
		fmt.Fprintln(w, "OK")
	}
}

// handleTrace serves the TRACE control surface:
//
//	TRACE ON     -> OK            (reset the buffer, start recording)
//	TRACE OFF    -> OK            (stop recording, keep the buffer)
//	TRACE STATUS -> OK k=v ...    (enabled/spans/dropped)
//	TRACE DUMP   -> OK <hex>      (chrome://tracing JSON, hex-encoded)
//
// Like STATS it is a trusted operator surface: span durations are
// wall-clock and therefore not public observables, which is exactly
// why the dump lives here and never on /metrics.
func (s *Server) handleTrace(w *bufio.Writer, fields []string) {
	if s.tracer == nil {
		fmt.Fprintln(w, "ERR tracing not wired (start horamd to get a tracer)")
		return
	}
	sub := ""
	if len(fields) == 2 {
		sub = strings.ToUpper(fields[1])
	}
	switch sub {
	case "ON":
		s.tracer.Start()
		fmt.Fprintln(w, "OK")
	case "OFF":
		s.tracer.Stop()
		fmt.Fprintln(w, "OK")
	case "STATUS":
		fmt.Fprintf(w, "OK enabled=%t spans=%d dropped=%d\n",
			s.tracer.Enabled(), s.tracer.Len(), s.tracer.Dropped())
	case "DUMP":
		raw, err := s.tracer.DumpJSON()
		if err != nil {
			fmt.Fprintln(w, "ERR "+err.Error())
			return
		}
		fmt.Fprintln(w, "OK "+hex.EncodeToString(raw))
	default:
		fmt.Fprintln(w, "ERR usage: TRACE ON|OFF|STATUS|DUMP")
	}
}
