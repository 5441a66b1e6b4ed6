// Package client is the TCP client for the horamd block protocol
// (see internal/server for the wire format). It supports pipelining —
// many goroutines may issue requests on one connection and each
// in-flight request only holds the send mutex while its bytes are
// written, so requests from concurrent callers interleave on the wire
// (the server answers one connection's requests in order) — and the MULTI
// verb, which runs a whole slice of operations as one scheduler batch
// on the server.
package client

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrClosed is returned for calls after Close.
var ErrClosed = errors.New("client: closed")

// MaxBatchOps is the protocol's cap on one MULTI command; it mirrors
// server.MaxMultiRequests (asserted equal in the server tests).
const MaxBatchOps = 1024

// call is one in-flight request awaiting its response lines.
type call struct {
	multi int // sub-responses expected after an OK header; 0 = single line
	ch    chan result
}

type result struct {
	lines []string
	err   error
}

// Client is a connection to a horamd-protocol server. Safe for
// concurrent use.
type Client struct {
	conn       net.Conn
	w          *bufio.Writer
	pending    chan *call
	readerDone chan struct{}

	// quit is closed by Close BEFORE it takes mu, so a sender blocked
	// on the bounded pending channel (stalled server, >cap in-flight
	// calls) wakes up and releases the mutex instead of deadlocking
	// Close against it.
	quit      chan struct{}
	closeOnce sync.Once

	mu     sync.Mutex // serialises writes and pending-queue order
	closed bool
}

// DialConfig bounds connection establishment. A plain net.Dial against
// a node that is down-but-routed (firewalled, mid-reboot, black-holed)
// blocks for the kernel's TCP handshake timeout — minutes — which a
// gateway assembling a cluster cannot afford. The zero value of each
// field selects the default.
type DialConfig struct {
	// Timeout bounds ONE connection attempt (DefaultDialTimeout if 0).
	Timeout time.Duration
	// Attempts is the total number of attempts, 1 meaning no retry
	// (default 1). A node that refuses fast (nothing listening yet)
	// burns attempts quickly, so pair Attempts > 1 with a Backoff.
	Attempts int
	// Backoff is the sleep after a failed attempt, doubling each retry
	// (DefaultDialBackoff if 0 and Attempts > 1).
	Backoff time.Duration
}

// Dial defaults.
const (
	DefaultDialTimeout = 5 * time.Second
	DefaultDialBackoff = 100 * time.Millisecond
)

// Dial connects to a horamd-protocol server with the default dial
// bounds (one attempt, DefaultDialTimeout).
func Dial(addr string) (*Client, error) {
	return DialWithConfig(addr, DialConfig{})
}

// DialWithConfig connects with explicit timeout/retry bounds. It
// returns the last attempt's error after the attempt budget is spent;
// it never blocks longer than Attempts × (Timeout + total backoff).
func DialWithConfig(addr string, cfg DialConfig) (*Client, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultDialTimeout
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 1
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultDialBackoff
	}
	var conn net.Conn
	var err error
	backoff := cfg.Backoff
	for attempt := 0; attempt < cfg.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		conn, err = net.DialTimeout("tcp", addr, cfg.Timeout)
		if err == nil {
			return newClient(conn), nil
		}
	}
	return nil, fmt.Errorf("client: dial %s (%d attempts): %w", addr, cfg.Attempts, err)
}

func newClient(conn net.Conn) *Client {
	c := &Client{
		conn:       conn,
		w:          bufio.NewWriter(conn),
		pending:    make(chan *call, 128),
		readerDone: make(chan struct{}),
		quit:       make(chan struct{}),
	}
	go c.reader(bufio.NewReaderSize(conn, 64<<10))
	return c
}

// reader matches response lines to in-flight calls in send order.
func (c *Client) reader(r *bufio.Reader) {
	defer close(c.readerDone)
	for pc := range c.pending {
		res := result{}
		line, err := readLine(r)
		if err != nil {
			pc.ch <- result{err: err}
			c.drain(err)
			return
		}
		res.lines = append(res.lines, line)
		if pc.multi > 0 && strings.HasPrefix(line, "OK") {
			for i := 0; i < pc.multi; i++ {
				sub, err := readLine(r)
				if err != nil {
					res.err = err
					break
				}
				res.lines = append(res.lines, sub)
			}
		}
		pc.ch <- res
		if res.err != nil {
			c.drain(res.err)
			return
		}
	}
}

// drain fails every remaining in-flight call after a transport error.
// Close closes the pending channel once no sender can hold it, so the
// range terminates.
func (c *Client) drain(err error) {
	for pc := range c.pending {
		pc.ch <- result{err: err}
	}
}

func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(line), nil
}

// do writes the request lines and waits for the response. multi is
// the number of sub-responses expected after an "OK n" header, 0 for
// single-line responses. The send mutex is released before waiting,
// so concurrent callers pipeline.
//
// The enqueue onto the bounded pending channel can block when the
// server has stalled with a full pipeline; selecting on quit keeps
// Close able to interrupt the blocked sender (which holds the send
// mutex Close needs). An interrupted call may leave its bytes on the
// wire without a matching pending entry — which is only safe because
// nothing can be written AFTER it: once quit is closed, every later
// do aborts at the entry check below, before touching the wire, so
// the reader can never mis-attribute a buffered response to a
// subsequent request.
func (c *Client) do(multi int, lines ...string) ([]string, error) {
	pc := &call{multi: multi, ch: make(chan result, 1)}
	c.mu.Lock()
	select {
	case <-c.quit:
		// Closing or closed (quit is closed strictly before c.closed
		// is set): refuse before writing anything.
		c.mu.Unlock()
		return nil, ErrClosed
	default:
	}
	for _, l := range lines {
		c.w.WriteString(l)
		c.w.WriteByte('\n')
	}
	if err := c.w.Flush(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	select {
	case c.pending <- pc:
	case <-c.quit:
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.mu.Unlock()
	res := <-pc.ch
	if res.err != nil {
		return nil, res.err
	}
	return res.lines, nil
}

// Close sends QUIT (best effort), closes the connection and waits for
// the reader to unwind. In-flight calls fail with a transport error.
// Close always makes progress, even against a stalled server with a
// full pipeline: it first closes quit — without holding the send
// mutex — which unblocks any sender parked on the pending channel.
func (c *Client) Close() error {
	c.closeOnce.Do(func() { close(c.quit) })
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.readerDone
		return nil
	}
	c.closed = true
	fmt.Fprintln(c.w, "QUIT")
	c.w.Flush()
	close(c.pending)
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// Read fetches one block.
func (c *Client) Read(addr int64) ([]byte, error) {
	lines, err := c.do(0, fmt.Sprintf("READ %d", addr))
	if err != nil {
		return nil, err
	}
	return parseReadLine(lines[0])
}

// Write stores one block.
func (c *Client) Write(addr int64, data []byte) error {
	lines, err := c.do(0, fmt.Sprintf("WRITE %d %s", addr, hex.EncodeToString(data)))
	if err != nil {
		return err
	}
	return parseOKLine(lines[0])
}

// Op is one operation of a Batch call.
type Op struct {
	Write bool
	Addr  int64
	Data  []byte // required for writes
}

// Result is the per-operation outcome of a Batch call.
type Result struct {
	Data []byte // read results; nil for writes
	Err  error
}

// Batch runs the operations as one MULTI command — a single scheduler
// batch on the server — and returns per-operation results in order.
func (c *Client) Batch(ops []Op) ([]Result, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	if len(ops) > MaxBatchOps {
		return nil, fmt.Errorf("client: batch of %d ops exceeds the protocol cap %d", len(ops), MaxBatchOps)
	}
	lines := make([]string, 0, len(ops)+1)
	lines = append(lines, fmt.Sprintf("MULTI %d", len(ops)))
	for _, op := range ops {
		if op.Write {
			lines = append(lines, fmt.Sprintf("WRITE %d %s", op.Addr, hex.EncodeToString(op.Data)))
		} else {
			lines = append(lines, fmt.Sprintf("READ %d", op.Addr))
		}
	}
	resp, err := c.do(len(ops), lines...)
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(resp[0], "OK") {
		return nil, errLine(resp[0])
	}
	if len(resp) != len(ops)+1 {
		return nil, fmt.Errorf("client: MULTI returned %d lines, want %d", len(resp)-1, len(ops))
	}
	out := make([]Result, len(ops))
	for i, line := range resp[1:] {
		if ops[i].Write {
			out[i].Err = parseOKLine(line)
		} else {
			out[i].Data, out[i].Err = parseReadLine(line)
		}
	}
	return out, nil
}

// KGet looks a key up in the server's oblivious key–value layer
// (horamd -kv), returning ok=false when the key is absent. Concurrent
// callers pipeline exactly like Read/Write.
func (c *Client) KGet(key []byte) (value []byte, ok bool, err error) {
	lines, err := c.do(0, "KGET "+hex.EncodeToString(key))
	if err != nil {
		return nil, false, err
	}
	line := lines[0]
	switch {
	case line == "MISS":
		return nil, false, nil
	case line == "OK":
		return []byte{}, true, nil
	case strings.HasPrefix(line, "OK "):
		v, err := hex.DecodeString(strings.TrimPrefix(line, "OK "))
		if err != nil {
			return nil, false, fmt.Errorf("client: bad KGET payload: %w", err)
		}
		return v, true, nil
	default:
		return nil, false, errLine(line)
	}
}

// KSet inserts or updates a key in the server's oblivious key–value
// layer. Value-length and key-length caps are enforced server-side
// (okv.ErrValueTooLarge / okv.ErrKeyInvalid surface as ERR lines); a
// full table surfaces okv.ErrTableFull's message.
func (c *Client) KSet(key, value []byte) error {
	line := "KSET " + hex.EncodeToString(key)
	if len(value) > 0 {
		line += " " + hex.EncodeToString(value)
	}
	lines, err := c.do(0, line)
	if err != nil {
		return err
	}
	return parseOKLine(lines[0])
}

// KDel removes a key from the server's oblivious key–value layer,
// reporting whether it existed. Deleting an absent key is not an
// error (and, server-side, runs the same fixed access shape).
func (c *Client) KDel(key []byte) (existed bool, err error) {
	lines, err := c.do(0, "KDEL "+hex.EncodeToString(key))
	if err != nil {
		return false, err
	}
	switch lines[0] {
	case "OK 1":
		return true, nil
	case "OK 0":
		return false, nil
	default:
		return false, errLine(lines[0])
	}
}

// Stats fetches the server's STATS line: every sample of the server's
// obs registry, keyed by its series as /metrics names it
// (horam_shard_cycles{shard="0"}). StatInt reads one as a number.
func (c *Client) Stats() (map[string]string, error) {
	lines, err := c.do(0, "STATS")
	if err != nil {
		return nil, err
	}
	return parseKVLine(lines[0])
}

// Cycles fetches the node's cumulative scheduler cycle count — the
// CYCLES shard-control verb, answered only by horamd -shard-serve.
// It is the lightweight read a gateway's leveling pass uses (a full
// STATS line would do, but leveling runs after every batch).
func (c *Client) Cycles() (int64, error) {
	lines, err := c.do(0, "CYCLES")
	if err != nil {
		return 0, err
	}
	if !strings.HasPrefix(lines[0], "OK ") {
		return 0, errLine(lines[0])
	}
	return strconv.ParseInt(strings.TrimPrefix(lines[0], "OK "), 10, 64)
}

// Pad runs dummy scheduler cycles on the node until its cumulative
// count reaches target (the PAD shard-control verb) and returns how
// many were run — the over-the-wire half of cross-node cycle
// leveling.
func (c *Client) Pad(target int64) (int64, error) {
	lines, err := c.do(0, fmt.Sprintf("PAD %d", target))
	if err != nil {
		return 0, err
	}
	if !strings.HasPrefix(lines[0], "OK ") {
		return 0, errLine(lines[0])
	}
	return strconv.ParseInt(strings.TrimPrefix(lines[0], "OK "), 10, 64)
}

// Checkpt checkpoints the node's shard state at the explicit lifetime
// number (the CHECKPT shard-control verb), so a gateway can drive a
// cluster to one aligned checkpoint cut.
func (c *Client) Checkpt(n uint64) error {
	lines, err := c.do(0, fmt.Sprintf("CHECKPT %d", n))
	if err != nil {
		return err
	}
	return parseOKLine(lines[0])
}

// Peek fetches the node's manifest echo (the PEEK shard-control verb)
// parsed into key=value pairs: epoch, checkpoint, geometry, option
// flags, cluster identity and the hex-encoded seed. A gateway
// validates these against the placement-derived expectation before
// serving any traffic through the node.
func (c *Client) Peek() (map[string]string, error) {
	lines, err := c.do(0, "PEEK")
	if err != nil {
		return nil, err
	}
	return parseKVLine(lines[0])
}

// Metrics fetches the node's Prometheus exposition (the METRICS
// shard-control verb, answered only by horamd -shard-serve): the
// leak-audited /metrics text a gateway aggregates into its own scrape
// so one scrape sees the whole cluster.
func (c *Client) Metrics() (string, error) {
	lines, err := c.do(0, "METRICS")
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(lines[0], "OK ") {
		return "", errLine(lines[0])
	}
	raw, err := hex.DecodeString(strings.TrimPrefix(lines[0], "OK "))
	if err != nil {
		return "", fmt.Errorf("client: bad METRICS payload: %w", err)
	}
	return string(raw), nil
}

// TraceStart enables the server's request-path tracer (TRACE ON),
// resetting its span buffer.
func (c *Client) TraceStart() error {
	lines, err := c.do(0, "TRACE ON")
	if err != nil {
		return err
	}
	return parseOKLine(lines[0])
}

// TraceStop disables the server's request-path tracer (TRACE OFF);
// the recorded spans stay buffered for TraceDump.
func (c *Client) TraceStop() error {
	lines, err := c.do(0, "TRACE OFF")
	if err != nil {
		return err
	}
	return parseOKLine(lines[0])
}

// TraceDump fetches the recorded spans as chrome://tracing JSON
// (TRACE DUMP) — write it to a file and load it in chrome://tracing
// or ui.perfetto.dev.
func (c *Client) TraceDump() ([]byte, error) {
	lines, err := c.do(0, "TRACE DUMP")
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(lines[0], "OK ") {
		return nil, errLine(lines[0])
	}
	raw, err := hex.DecodeString(strings.TrimPrefix(lines[0], "OK "))
	if err != nil {
		return nil, fmt.Errorf("client: bad TRACE DUMP payload: %w", err)
	}
	return raw, nil
}

// StatInt reads one integer series of a Stats map, e.g.
// StatInt(kv, `horam_shard_cycles{shard="0"}`); an error names the
// series.
func StatInt(kv map[string]string, series string) (int64, error) {
	v, ok := kv[series]
	if !ok {
		return 0, fmt.Errorf("client: stats field %s missing", series)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("client: stats field %s=%q: %w", series, v, err)
	}
	return n, nil
}

// parseKVLine splits an "OK k=v k=v ..." response — STATS and PEEK —
// into its pairs, each token at its last "=": a STATS series carries
// "=" inside its label set (horam_shard_cycles{shard="0"}=812), a
// value never does. A field without "=" is skipped.
func parseKVLine(line string) (map[string]string, error) {
	if !strings.HasPrefix(line, "OK") {
		return nil, errLine(line)
	}
	kv := make(map[string]string)
	for _, f := range strings.Fields(line)[1:] {
		if i := strings.LastIndexByte(f, '='); i >= 0 {
			kv[f[:i]] = f[i+1:]
		}
	}
	return kv, nil
}

// errLine is the error a non-OK response line stands for: the
// server's message with its "ERR " prefix dropped.
func errLine(line string) error {
	return errors.New("client: " + strings.TrimPrefix(line, "ERR "))
}

func parseOKLine(line string) error {
	if line == "OK" || strings.HasPrefix(line, "OK ") {
		return nil
	}
	return errLine(line)
}

func parseReadLine(line string) ([]byte, error) {
	if !strings.HasPrefix(line, "OK ") {
		return nil, errLine(line)
	}
	data, err := hex.DecodeString(strings.TrimPrefix(line, "OK "))
	if err != nil {
		return nil, fmt.Errorf("client: bad response payload: %w", err)
	}
	return data, nil
}
