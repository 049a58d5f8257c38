// Package dist distributes the out-of-core enumeration across worker
// processes.  A coordinator executes one level at a time by leasing the
// level's shard files to workers; each worker joins its shard with the
// same ooc.Joiner the single-machine pool uses, writes its output
// shards into the shared run directory, and reports their metadata
// back.  Results are released in shard order through sched.Sequencer,
// so the merged clique stream is byte-identical to a sequential run at
// any worker count — the same stream-parity law the in-process pool
// obeys.
//
// The first transport is exec/pipe: workers are child processes
// (cliquer -worker / cliqued -worker) speaking the length-prefixed
// protocol below over stdin/stdout.  The Transport interface keeps the
// coordinator transport-agnostic, so a TCP transport can drop in
// without touching it.
//
// Fault tolerance rides on the ooc manifest machinery: every lease
// carries a deadline; a dead or expired worker's shard goes back to
// the table and is re-joined by another worker.  Re-execution is
// idempotent because output shard names embed the shard index and the
// lease attempt (a superseded attempt's files can never collide with
// its replacement's), results are accepted at most once per shard, and
// the level barrier commits the manifest only after every output is
// durable — the outputs-durable → manifest → delete-inputs ordering
// from the single-machine checkpoint path.
package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ooc"
)

// Wire protocol: 4-byte big-endian frame length followed by one JSON
// Msg.  JSON keeps the first transport debuggable (frames are readable
// in a hex dump) and versionable; the length prefix keeps framing
// trivial over any byte stream.

// maxFrame bounds one frame.  Result frames carry a shard's maximal
// clique emissions, so the bound is generous; anything larger is a
// protocol error, not a bigger buffer.
const maxFrame = 1 << 30

// Message types, in the order a session uses them.
const (
	MsgInit      = "init"      // coordinator → worker: run setup
	MsgReady     = "ready"     // worker → coordinator: setup done, scratch declared
	MsgLease     = "lease"     // coordinator → worker: join one shard
	MsgResult    = "result"    // worker → coordinator: the join's outputs
	MsgHeartbeat = "heartbeat" // worker → coordinator: liveness, sent on a timer
	MsgError     = "error"     // worker → coordinator: fatal worker error
	MsgShutdown  = "shutdown"  // coordinator → worker: clean exit
)

// Msg is one protocol frame.  A single struct (rather than per-type
// payloads) keeps the codec one function pair; unused fields are
// omitted on the wire.
type Msg struct {
	Type string `json:"type"`

	// init
	GraphPath string `json:"graph_path,omitempty"`   // edge-list file, relative to Dir
	Dir       string `json:"dir,omitempty"`          // shared run directory
	WorkerID  string `json:"worker_id,omitempty"`    // the worker's manifest/owner tag
	PingMS    int64  `json:"heartbeat_ms,omitempty"` // worker heartbeat period

	// ready / heartbeat; ScratchBytes also rides on every result
	ScratchBytes int64  `json:"scratch_bytes,omitempty"` // joiner bitmaps right now, reserved by the coordinator
	Host         string `json:"host,omitempty"`
	PID          int    `json:"pid,omitempty"`

	// lease
	LeaseID    int64         `json:"lease_id,omitempty"`
	K          int           `json:"k,omitempty"`           // record size of the input shard
	Shard      ooc.ShardMeta `json:"shard,omitempty"`       // input shard to join
	ShardIndex int           `json:"shard_index,omitempty"` // position in the level's shard list
	Attempt    int           `json:"attempt,omitempty"`     // 1-based lease attempt for this shard
	Target     int64         `json:"target,omitempty"`      // output shard target bytes
	Collect    bool          `json:"collect,omitempty"`     // buffer maximal emissions in the result

	// result (echoes LeaseID)
	Out       []ooc.ShardMeta `json:"out,omitempty"` // output shards, in order
	Maximal   int64           `json:"maximal,omitempty"`
	Dropped   int64           `json:"dropped,omitempty"`
	Cost      core.Cost       `json:"cost,omitzero"`        // the kernel's work on the shard
	EmitVerts []int           `json:"emit_verts,omitempty"` // flat emission arena
	EmitOff   []int32         `json:"emit_off,omitempty"`   // arena end offsets, one per clique
	BytesRead int64           `json:"bytes_read,omitempty"`

	// error
	Error string `json:"error,omitempty"`
}

// WriteMsg frames and writes one message.  The caller owns any
// buffering and flushing; WriteMsg itself issues exactly two writes.
func WriteMsg(w io.Writer, m *Msg) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dist: encode %s frame: %w", m.Type, err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("dist: %s frame of %d bytes exceeds limit", m.Type, len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("dist: write frame header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("dist: write %s frame: %w", m.Type, err)
	}
	return nil
}

// ReadMsg reads one framed message.  io.EOF is returned verbatim on a
// clean close between frames (the peer-death signal the coordinator
// watches for); any mid-frame truncation is an error.
func ReadMsg(r io.Reader) (*Msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("dist: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("dist: frame of %d bytes exceeds limit", n)
	}
	// The body grows as its bytes arrive: the header is only a claim, and
	// a peer that dies after one must not cost the reader n bytes.
	var body bytes.Buffer
	body.Grow(int(min(n, 64<<10)))
	if _, err := io.CopyN(&body, r, int64(n)); err != nil {
		return nil, fmt.Errorf("dist: read frame body: %w", err)
	}
	var m Msg
	if err := json.Unmarshal(body.Bytes(), &m); err != nil {
		return nil, fmt.Errorf("dist: decode frame: %w", err)
	}
	if m.Type == "" {
		return nil, fmt.Errorf("dist: frame without type")
	}
	return &m, nil
}

// pipeConn adapts a read/write stream pair to Conn with buffered,
// flush-per-frame writes.  Send is not safe for concurrent use; both
// the coordinator (per-worker sender) and the worker (send mutex in
// ServeWorker) serialize their sends.
type pipeConn struct {
	r     *bufio.Reader
	w     *bufio.Writer
	close func() error
}

// NewPipeConn wraps a byte-stream pair (a child's stdout/stdin, a TCP
// socket's two directions, an in-process pipe) as a Conn.  closeFn may
// be nil.
func NewPipeConn(r io.Reader, w io.Writer, closeFn func() error) Conn {
	return &pipeConn{r: bufio.NewReader(r), w: bufio.NewWriter(w), close: closeFn}
}

func (c *pipeConn) Send(m *Msg) error {
	if err := WriteMsg(c.w, m); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *pipeConn) Recv() (*Msg, error) { return ReadMsg(c.r) }

func (c *pipeConn) Close() error {
	if c.close == nil {
		return nil
	}
	return c.close()
}
