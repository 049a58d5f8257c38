package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ooc"
)

func TestWireRoundTrip(t *testing.T) {
	msgs := []*Msg{
		{Type: MsgInit, Dir: "/tmp/run", GraphPath: GraphFileName,
			WorkerID: "worker-2", PingMS: 250},
		{Type: MsgReady, ScratchBytes: 4096, Host: "h", PID: 99},
		{Type: MsgLease, LeaseID: 7, K: 3,
			Shard:      ooc.ShardMeta{Path: "l003-c-000001.ooc", Records: 12, Runs: 3, Bytes: 80, RawBytes: 144},
			ShardIndex: 4, Attempt: 2, Target: 1 << 16, Collect: true},
		{Type: MsgResult, LeaseID: 7, Maximal: 3,
			Out:       []ooc.ShardMeta{{Path: "l004-s00004-a02-001.ooc", Records: 2, Runs: 1, Bytes: 30, RawBytes: 32}},
			EmitVerts: []int{0, 1, 2, 4, 5, 6}, EmitOff: []int32{3, 6}, BytesRead: 80},
		{Type: MsgHeartbeat},
		{Type: MsgError, LeaseID: 7, Error: "boom"},
		{Type: MsgShutdown},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("WriteMsg(%s): %v", m.Type, err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("ReadMsg(%s): %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %s:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
	if _, err := ReadMsg(&buf); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestWireTruncatedFrame: a frame cut short is a mid-frame error, never
// io.EOF, and reading one costs what arrived, not what the header
// declared.
func TestWireTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, &Msg{Type: MsgHeartbeat}); err != nil {
		t.Fatal(err)
	}
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], 1<<30)
	for _, c := range []struct {
		name string
		in   []byte
	}{
		{"body", buf.Bytes()[:buf.Len()-2]},
		{"header", buf.Bytes()[:2]},
		{"1GiB-header-then-EOF", huge[:]},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadMsg(bytes.NewReader(c.in))
			runtime.ReadMemStats(&after)
			if err == nil || err == io.EOF {
				t.Errorf("err = %v, want mid-frame error", err)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Errorf("allocated %d bytes reading %d", d, len(c.in))
			}
		})
	}
}

func TestWireOversizeFrameRejected(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := ReadMsg(bytes.NewReader(hdr[:])); err == nil {
		t.Error("oversize frame accepted")
	}
}

// FuzzReadMsg holds the coordinator's and the worker's byte boundary:
// every input is an error or a Msg whose encoding survives a WriteMsg →
// ReadMsg round trip unchanged.  (The encoding, not the struct: an
// empty JSON array decodes to an empty slice, which omitempty drops.)
func FuzzReadMsg(f *testing.F) {
	var seed bytes.Buffer
	for _, m := range []*Msg{
		{Type: MsgLease, LeaseID: 7, K: 3, Shard: ooc.ShardMeta{Path: "l003-c-000001.ooc", Records: 12}},
		{Type: MsgResult, LeaseID: 7, EmitVerts: []int{0, 1, 2}, EmitOff: []int32{3}},
		{Type: MsgError, Error: "boom"},
	} {
		seed.Reset()
		if err := WriteMsg(&seed, m); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(seed.Bytes()))
	}
	f.Add([]byte{0x40, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ReadMsg(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("WriteMsg of a decoded %s frame: %v", m.Type, err)
		}
		wire := bytes.Clone(buf.Bytes())
		back, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("ReadMsg of a re-encoded %s frame: %v", m.Type, err)
		}
		if err := WriteMsg(&buf, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), wire) {
			t.Fatalf("round trip changed the frame:\n%q\n%q", wire, buf.Bytes())
		}
	})
}
